"""Component distributions: normalization, reference values, sampling."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

import frozen_values as fv
from tailmix import dists, kernels
from tailmix.dists import (
    ExpParams,
    ParetoParams,
    hurwitz_zeta,
    sample_exp,
    sample_pareto,
)
from tailmix.errors import DomainError
from tailmix.seeding import substream


def _unit_logs(x, lambdas, alpha, x_min):
    """Log pmf of each component at x, from the one density path: the
    densities' support check, then ``kernels.component_logs`` with unit
    weights."""
    arr = np.atleast_1d(dists._check_support(x, x_min))
    lam = np.asarray(lambdas, dtype=np.float64)
    z = kernels.zeta_pair(alpha, float(x_min))[0]
    return kernels.component_logs(arr, np.log(arr), np.ones(lam.size + 1), lam,
                                  alpha, float(x_min), z)


def pareto_log_pmf(x, params: ParetoParams):
    """The power-law component's log pmf."""
    return _unit_logs(x, (), params.alpha, params.x_min)[0]


def pareto_pmf(x, params: ParetoParams):
    return np.exp(pareto_log_pmf(x, params))


def exp_log_pmf(x, params: ExpParams, x_min: int = 1):
    """The exponential component's log pmf; the power tail beside it does
    not enter the first row."""
    return _unit_logs(x, (params.rate,), 2.0, x_min)[0]


def exp_pmf(x, params: ExpParams, x_min: int = 1):
    return np.exp(exp_log_pmf(x, params, x_min))


class TestZeta:
    def test_frozen_values(self):
        assert hurwitz_zeta(1.5) == pytest.approx(fv.ZETA_ALPHA_15, abs=1e-10)
        assert hurwitz_zeta(2.0) == pytest.approx(fv.ZETA_ALPHA_2, abs=1e-10)
        dzeta = kernels.zeta_pair(2.0, 1.0)[1]
        assert dzeta == pytest.approx(fv.DZETA_ALPHA_2, abs=1e-9)

    def test_matches_scipy_across_grid(self):
        for alpha in (1.01, 1.1, 1.3, 1.6, 2.0, 2.5, 3.0, 3.9):
            for q in (1, 2, 5, 10):
                ref = scipy.special.zeta(alpha, q)
                assert hurwitz_zeta(alpha, q) == pytest.approx(ref, abs=1e-10), (
                    alpha, q,
                )

    def test_derivative_matches_finite_difference_of_scipy(self):
        h = 1e-5
        for alpha in (1.2, 1.6, 2.0, 3.0):
            for q in (1, 3):
                fd = (scipy.special.zeta(alpha + h, q)
                      - scipy.special.zeta(alpha - h, q)) / (2 * h)
                dzeta = kernels.zeta_pair(alpha, float(q))[1]
                assert dzeta == pytest.approx(fd, abs=1e-7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, x_min=0)


class TestParamValidation:
    def test_pareto_params(self):
        p = ParetoParams(2.0)
        assert p.x_min == 1
        with pytest.raises(DomainError):
            ParetoParams(1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="alpha must exceed .* finite"):
                ParetoParams(bad)
        with pytest.raises(DomainError):
            ParetoParams(2.0, x_min=0)
        with pytest.raises(DomainError):
            ParetoParams(2.0, x_min=1.5)
        # past 2^52 the table values x_min + k are not exact float64 integers
        assert ParetoParams(2.0, x_min=2**52).x_min == 2**52
        for bad in (2**52 + 1, 2**63 - 5, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"2\\^52, got {bad}$"):
                ParetoParams(2.0, x_min=bad)
            with pytest.raises(DomainError, match=f"got {bad}$"):
                sample_exp(ExpParams(0.3), 5, seed=1, x_min=bad)

    def test_exp_params(self):
        ExpParams(0.3)
        with pytest.raises(DomainError):
            ExpParams(0.0)
        with pytest.raises(DomainError):
            ExpParams(-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="rate must exceed .* finite"):
                ExpParams(bad)
        with pytest.raises(TypeError):  # one exponential form, no mode field
            ExpParams(0.3, mode="discrete")


class TestPmfs:
    def test_pareto_normalizes(self):
        for alpha in (1.3, 1.6, 2.5):
            p = ParetoParams(alpha)
            xs = np.arange(1, 1_000_000)
            head = pareto_pmf(xs, p).sum()
            tail = scipy.special.zeta(alpha, 1_000_000) / hurwitz_zeta(alpha)
            assert head + tail == pytest.approx(1.0, abs=1e-10)

    def test_discrete_exp_normalizes(self):
        for rate in (0.05, 0.5, 2.0):
            e = ExpParams(rate)
            xs = np.arange(1, 5000)
            head = exp_pmf(xs, e).sum()
            tail = math.exp(-rate * (5000 - 1))
            assert head + tail == pytest.approx(1.0, abs=1e-12)

    def test_support_validation(self):
        with pytest.raises(DomainError):
            pareto_log_pmf(0, ParetoParams(2.0))
        with pytest.raises(DomainError):
            pareto_log_pmf(1.5, ParetoParams(2.0))
        with pytest.raises(DomainError):
            exp_log_pmf(np.array([2, 0]), ExpParams(0.5))

    def test_x_min_shifts_support(self):
        p = ParetoParams(2.0, x_min=3)
        xs = np.arange(3, 500_000)
        head = pareto_pmf(xs, p).sum()
        tail = scipy.special.zeta(2.0, 500_000) / hurwitz_zeta(2.0, 3)
        assert head + tail == pytest.approx(1.0, abs=1e-10)
        e = ExpParams(0.7)
        assert exp_pmf(3, e, x_min=3)[0] == pytest.approx(1 - math.exp(-0.7), rel=1e-12)


class TestSampling:
    def test_exp_sampling_deterministic_and_geometric(self):
        e = ExpParams(0.4)
        a = sample_exp(e, 5000, seed=9)
        b = sample_exp(e, 5000, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int64
        assert a.min() >= 1
        # geometric mean on {1, 2, ...} is 1 / (1 - e^-rate)
        expected = 1.0 / (1.0 - math.exp(-0.4))
        assert a.mean() == pytest.approx(expected, rel=0.05)

    def test_exp_sampling_respects_x_min(self):
        a = sample_exp(ExpParams(0.4), 1000, seed=9, x_min=5)
        assert a.min() >= 5

    def test_literal_sampling_refused(self):
        # the unnormalized form has no sampler, and nothing can ask for it
        with pytest.raises(TypeError):
            ExpParams(0.4, mode="paper-literal")
        with pytest.raises(TypeError):
            sample_exp(ExpParams(0.4), 10, seed=0, mode="paper-literal")

    def test_pareto_sampling_matches_pmf_at_small_values(self):
        p = ParetoParams(1.8)
        xs = sample_pareto(p, 200_000, seed=4)
        assert xs.dtype == np.int64
        assert xs.min() >= 1
        for v in (1, 2, 5):
            frac = (xs == v).mean()
            prob = pareto_pmf(v, p)[0]
            sd = math.sqrt(prob * (1 - prob) / xs.size)
            assert abs(frac - prob) < 5 * sd, v

    def test_pareto_heavy_tail_draws_stay_in_int64(self):
        p = ParetoParams(1.2)
        with np.errstate(all="raise"):
            xs = sample_pareto(p, 100_000, seed=12)
        assert xs.min() >= 1
        assert xs.max() <= np.iinfo(np.int64).max
        # alpha 1.2 mass beyond the table edge is several percent, so the
        # analytic tail path must have produced very large draws
        assert xs.max() > 1 << 20

    def test_pareto_sampling_deterministic(self):
        p = ParetoParams(2.5)
        np.testing.assert_array_equal(
            sample_pareto(p, 1000, seed=3), sample_pareto(p, 1000, seed=3)
        )

    def test_pareto_mean_sanity(self):
        # alpha 3: mean is zeta(2)/zeta(3)
        p = ParetoParams(3.0)
        xs = sample_pareto(p, 300_000, seed=8)
        expected = fv.ZETA_ALPHA_2 / hurwitz_zeta(3.0)
        assert xs.mean() == pytest.approx(expected, rel=0.02)


def _pareto_table_rebuilt(params):
    """The sampling table as one cumsum over all its values: the
    reference the kept checkpoints and the draws must match bit for bit."""
    z = hurwitz_zeta(params.alpha, params.x_min)
    vals = params.x_min + np.arange(dists._TABLE_SIZE, dtype=np.float64)
    return np.cumsum(vals ** (-params.alpha) / z)


def _sample_from_full_table(params, u):
    """Inverse-CDF draws for the uniforms u from the whole rebuilt table,
    with the tail formula, through libm's pow, applied beyond its edge."""
    cum = _pareto_table_rebuilt(params)
    idx = np.searchsorted(cum, u, side="right")
    out = params.x_min + idx.astype(np.int64)
    in_tail = idx >= cum.shape[0]
    if in_tail.any():
        edge = params.x_min + cum.shape[0] - 1
        v = (u[in_tail] - cum[-1]) / (1.0 - cum[-1])
        power = -1.0 / (params.alpha - 1.0)
        scale = []
        for s in 1.0 - v:
            try:
                scale.append(math.pow(s, power))
            except OverflowError:
                scale.append(math.inf)
        draw = np.floor((edge + 0.5) * np.array(scale) + 0.5)
        draw = np.clip(draw, edge + 1, np.nextafter(float(np.iinfo(np.int64).max), 0.0))
        out[in_tail] = draw.astype(np.int64)
    return out


class _FixedDraws(np.random.Generator):
    """A generator whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.u.size
        return self.u.copy()


_GRID = [ParetoParams(alpha, x_min)
         for alpha in (1.05, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5, 3.5, 3.99)
         for x_min in (1, 3)]


class TestParetoTable:
    def test_in_place_build_equals_rebuild_bit_for_bit(self):
        # the chunked build keeps the head and every block's last sum of
        # the table that is rebuilt whole, and every table spans 2^20
        for alpha in (1.05, 1.2, 1.6, 2.0, 3.5, 3.99):
            for x_min in (1, 3):
                want = _pareto_table_rebuilt(ParetoParams(alpha, x_min))
                z, head, ends = dists._pareto_checkpoints(alpha, x_min)
                assert z == hurwitz_zeta(alpha, x_min)
                np.testing.assert_array_equal(
                    head.view(np.int64), want[: dists._HEAD].view(np.int64))
                np.testing.assert_array_equal(
                    ends.view(np.int64),
                    want[dists._BLOCK - 1 :: dists._BLOCK].view(np.int64))
                assert head.size == dists._HEAD == 4096
                assert ends.size * dists._BLOCK == want.size == 1 << 20

    def test_one_build_reads_zeta_once(self, monkeypatch):
        # the table's size does not depend on alpha, so the build reads
        # zeta only for the normalization
        calls = []
        zeta_pair = kernels.zeta_pair

        def counted(*args):
            calls.append(args)
            return zeta_pair(*args)

        monkeypatch.setattr(kernels, "zeta_pair", counted)
        for alpha, x_min in [(1.2, 1), (3.5, 3), (3.99, 1)]:
            calls.clear()
            dists._pareto_checkpoints(alpha, x_min)
            assert calls == [(alpha, float(x_min))]

    def test_overflowing_pow_clamps_to_int64(self):
        # at alpha 1 + 1e-6 the tail's exponent is -1e6, so pow overflows
        # on every draw past the table edge; the draw is clamped, not raised
        p = ParetoParams(1.0 + 1e-6)
        u = np.array([np.nextafter(1.0, 0.0), 0.5])
        _, _, ends = dists._pareto_checkpoints(float(p.alpha), p.x_min)
        assert ends[-1] < 0.5
        with pytest.raises(OverflowError):
            math.pow(1.0 - u[0], -1.0 / (p.alpha - 1.0))
        got = sample_pareto(p, u.size, _FixedDraws(u))
        top = int(np.nextafter(float(np.iinfo(np.int64).max), 0.0))
        np.testing.assert_array_equal(got, [top, top])
        np.testing.assert_array_equal(got, _sample_from_full_table(p, u))

    def test_draws_equal_draws_from_rebuilt_table(self):
        # interleaved with repeats: revisits draw from kept checkpoints
        order = [i for rnd in range(2) for i in range(len(_GRID))]
        order += [0, 0, 5, 0, 5, 5, 17]
        for k, i in enumerate(order):
            p = _GRID[i]
            got = sample_pareto(p, 50_000, seed=21 + k)
            u = substream(21 + k).random(50_000)
            np.testing.assert_array_equal(got, _sample_from_full_table(p, u))

    def test_draws_on_checkpoints_head_and_edge(self):
        # sums repeat, where the masses fall below the rounding, at
        # alpha 3.5 from x = 42,624 and at alpha 3.0, x_min 3 from 616,031
        for p in (ParetoParams(1.2), ParetoParams(3.5), ParetoParams(3.0, 3),
                  ParetoParams(3.99)):
            cum = _pareto_table_rebuilt(p)
            _, head, ends = dists._pareto_checkpoints(float(p.alpha), p.x_min)
            picks = [head[-1], cum[-1], ends[0], ends[-1], 0.0,
                     np.nextafter(head[-1], 0.0), np.nextafter(head[-1], 1.0),
                     np.nextafter(cum[-1], 0.0), np.nextafter(cum[-1], 1.0)]
            picks += list(ends[:: max(ends.size // 40, 1)])
            picks += [np.nextafter(c, 0.0) for c in ends[1::97]]
            picks += [np.nextafter(c, 1.0) for c in ends[2::89]]
            ties = np.flatnonzero(np.diff(cum) == 0)
            picks += list(cum[ties[:: max(ties.size // 20, 1)]])
            u = np.array(picks, dtype=np.float64)
            got = sample_pareto(p, u.size, _FixedDraws(u))
            np.testing.assert_array_equal(got, _sample_from_full_table(p, u))

    def test_zero_draws(self):
        for p in (ParetoParams(1.2), ParetoParams(3.99)):
            xs = sample_pareto(p, 0, seed=1)
            assert xs.dtype == np.int64
            assert xs.shape == (0,)


class TestKeptTable:
    def test_repeated_params_build_once(self, table_builds):
        p = ParetoParams(1.6)
        for seed in range(3):
            sample_pareto(p, 100, seed=seed)
        # an alpha given as a 0-d array finds the same key
        sample_pareto(ParetoParams(np.array(1.6), 1), 100, seed=4)
        assert table_builds == [(1.6, 1)]

    def test_interleaved_params_build_once_per_key(self, table_builds):
        # x_min is part of the key as well as alpha
        seq = [ParetoParams(1.4), ParetoParams(1.8), ParetoParams(1.4),
               ParetoParams(1.4, 2), ParetoParams(1.4), ParetoParams(1.8),
               ParetoParams(1.4, 2)]
        for i, p in enumerate(seq):
            sample_pareto(p, 100, seed=i)
        assert table_builds == [(1.4, 1), (1.8, 1), (1.4, 2)]

    def test_kept_table_is_read_only(self):
        _, head, ends = dists._pareto_checkpoints(2.5, 1)
        for kept in (head, ends):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0.0

    def test_store_is_bounded(self):
        for i in range(dists._KEPT_KEYS + 8):
            sample_pareto(ParetoParams(1.5 + 0.01 * i), 10, seed=i)
        info = dists._pareto_checkpoints.cache_info()
        assert info.maxsize == info.currsize == dists._KEPT_KEYS

    def test_first_visit_peak_and_kept_size(self):
        p = ParetoParams(1.2)
        tracemalloc.start()
        try:
            sample_pareto(p, 5000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        for alpha, x_min in [(1.2, 1), (1.05, 3), (3.99, 1)]:
            _, head, ends = dists._pareto_checkpoints(alpha, x_min)
            assert head.base is None and ends.base is None
            assert head.nbytes + ends.nbytes <= 64 << 10
