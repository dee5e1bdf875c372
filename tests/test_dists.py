"""Component distributions: normalization, reference values, sampling."""

import math

import numpy as np
import pytest
import scipy.special

import frozen_values as fv
from tailmix import dists
from tailmix.dists import (
    ExpParams,
    ParetoParams,
    hurwitz_zeta,
    hurwitz_zeta_dalpha,
    sample_exp,
    sample_pareto,
)
from tailmix.errors import DomainError, UnsupportedOperationError
from tailmix.mixture import MixtureParams, ModelSpec, component_log_pmfs


def pareto_log_pmf(x, params: ParetoParams):
    """The power-law component's log pmf, from the one density path."""
    spec = ModelSpec(0, x_min=params.x_min)
    return component_log_pmfs(x, spec, MixtureParams((1.0,), (), params.alpha))[0]


def pareto_pmf(x, params: ParetoParams):
    return np.exp(pareto_log_pmf(x, params))


def exp_log_pmf(x, params: ExpParams, x_min: int = 1):
    """The exponential component's log density, from the one density path;
    the power tail beside it does not enter the first row."""
    spec = ModelSpec(1, x_min=x_min, exp_mode=params.mode)
    mix = MixtureParams((0.5, 0.5), (params.rate,), 2.0)
    return component_log_pmfs(x, spec, mix)[0]


def exp_pmf(x, params: ExpParams, x_min: int = 1):
    return np.exp(exp_log_pmf(x, params, x_min))


class TestZeta:
    def test_frozen_values(self):
        assert hurwitz_zeta(1.5) == pytest.approx(fv.ZETA_ALPHA_15, abs=1e-10)
        assert hurwitz_zeta(2.0) == pytest.approx(fv.ZETA_ALPHA_2, abs=1e-10)
        assert hurwitz_zeta_dalpha(2.0) == pytest.approx(fv.DZETA_ALPHA_2, abs=1e-9)

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
                assert hurwitz_zeta_dalpha(alpha, q) == pytest.approx(fd, abs=1e-7)

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
        with pytest.raises(DomainError):
            ParetoParams(2.0, x_min=0)
        with pytest.raises(DomainError):
            ParetoParams(2.0, x_min=1.5)

    def test_exp_params(self):
        ExpParams(0.3)
        with pytest.raises(DomainError):
            ExpParams(0.0)
        with pytest.raises(DomainError):
            ExpParams(-1.0)
        with pytest.raises(DomainError):
            ExpParams(0.3, mode="continuous")


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

    def test_literal_mode_is_unnormalized(self):
        e = ExpParams(1.0, mode="paper-literal")
        xs = np.arange(1, 2000)
        total = exp_pmf(xs, e).sum()
        expected = math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert total == pytest.approx(expected, abs=1e-12)
        assert total != pytest.approx(1.0, abs=1e-3)

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
        with pytest.raises(UnsupportedOperationError):
            sample_exp(ExpParams(0.4, mode="paper-literal"), 10, seed=0)

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
    """The sampling table rebuilt whole at every doubling: the
    reference the in-place build must match bit for bit."""
    z = hurwitz_zeta(params.alpha, params.x_min)
    size = 1 << 10
    while True:
        vals = params.x_min + np.arange(size, dtype=np.float64)
        cum = np.cumsum(vals ** (-params.alpha) / z)
        if cum[-1] >= dists._TABLE_MASS or size >= dists._TABLE_MAX:
            return cum
        size <<= 1


class TestParetoTable:
    def test_in_place_build_equals_rebuild_bit_for_bit(self):
        sizes = set()
        for alpha in (1.05, 1.2, 1.6, 2.0, 3.5, 3.99):
            for x_min in (1, 3):
                p = ParetoParams(alpha, x_min)
                want = _pareto_table_rebuilt(p)
                got = dists._pareto_table(p)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
                sizes.add(want.size)
        # the grid stops early at three sizes and runs to the cap
        assert {1 << 13, 1 << 15, 1 << 16, dists._TABLE_MAX} <= sizes

    def test_draws_equal_draws_from_rebuilt_table(self, monkeypatch):
        # repeats hit the kept table, alternations rebuild it
        a, b, c = ParetoParams(1.2), ParetoParams(2.0, 3), ParetoParams(3.99)
        params = [a, a, b, a, b, b, c, a]
        got = [sample_pareto(p, 50_000, seed=21 + i) for i, p in enumerate(params)]
        monkeypatch.setattr(dists, "_pareto_table", _pareto_table_rebuilt)
        for i, (p, xs) in enumerate(zip(params, got)):
            np.testing.assert_array_equal(xs, sample_pareto(p, 50_000, seed=21 + i))


class TestKeptTable:
    def test_repeated_params_build_once(self, table_builds):
        p = ParetoParams(1.6)
        first = dists._pareto_table(p)
        for seed in range(3):
            sample_pareto(p, 100, seed=seed)
        # an alpha given as a 0-d array finds the same table
        assert dists._pareto_table(ParetoParams(np.array(1.6), 1)) is first
        assert table_builds == [(1.6, 1, 0)]

    def test_alternating_params_rebuild_from_an_empty_memo(self, table_builds):
        # x_min is part of the key as well as alpha
        seq = [ParetoParams(1.4), ParetoParams(1.8), ParetoParams(1.4),
               ParetoParams(1.4, 2), ParetoParams(1.4)]
        for i, p in enumerate(seq):
            sample_pareto(p, 100, seed=i)
        assert table_builds == [(p.alpha, p.x_min, 0) for p in seq]

    def test_kept_table_is_read_only(self):
        cum = dists._pareto_table(ParetoParams(2.5))
        assert not cum.flags.writeable
        with pytest.raises(ValueError):
            cum[0] = 0.0
