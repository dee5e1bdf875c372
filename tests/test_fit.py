"""Optimizer: slack geometry, initialization, gradients, recovery."""

import numpy as np
import pytest

from tailmix.errors import FitError
from tailmix.fit import (
    FitConfig,
    FittedModel,
    fit_model,
    random_init,
    slack_system,
    theta_to_params,
)
from tailmix import fit as fit_module
from tailmix.mixture import MixtureParams, ModelSpec, sample_mixture
from tailmix.seeding import substream

P, EP, EEP = ModelSpec(0), ModelSpec(1), ModelSpec(2)


class TestSlackSystem:
    def test_shapes(self):
        for spec, n_slacks, dim in ((P, 2, 1), (EP, 6, 3), (EEP, 10, 5)):
            a, b = slack_system(spec)
            assert a.shape == (n_slacks, dim)
            assert b.shape == (n_slacks,)

    def test_interior_point_is_feasible(self):
        a, b = slack_system(EEP)
        theta = np.array([0.3, 0.4, 1.5, 0.15, 1.6])
        assert (a @ theta + b > 0).all()

    def test_violations_detected(self):
        a, b = slack_system(EEP)
        bad = [
            np.array([-0.1, 0.4, 1.5, 0.15, 1.6]),  # negative weight
            np.array([0.6, 0.5, 1.5, 0.15, 1.6]),  # tail weight negative
            np.array([0.3, 0.4, 3.6, 0.15, 1.6]),  # rate above cap
            np.array([0.3, 0.4, 0.1, 0.15, 1.6]),  # rates out of order
            np.array([0.3, 0.4, 1.5, 0.15, 0.9]),  # alpha below 1
            np.array([0.3, 0.4, 1.5, 0.15, 4.5]),  # alpha above cap
        ]
        for theta in bad:
            assert (a @ theta + b <= 0).any(), theta

    def test_alpha_only_model(self):
        a, b = slack_system(P)
        assert (a @ np.array([2.0]) + b > 0).all()
        assert (a @ np.array([0.5]) + b <= 0).any()
        assert (a @ np.array([4.5]) + b <= 0).any()


class TestRandomInit:
    def test_always_feasible(self):
        for spec in (P, EP, EEP):
            a, b = slack_system(spec)
            for r in range(200):
                theta = random_init(spec, substream(77, r))
                assert (a @ theta + b > 0).all()

    def test_deterministic(self):
        t1 = random_init(EEP, substream(5, 0))
        t2 = random_init(EEP, substream(5, 0))
        np.testing.assert_array_equal(t1, t2)

    def test_rates_start_ordered(self):
        for r in range(50):
            theta = random_init(EEP, substream(88, r))
            assert theta[2] > theta[3]


class TestGradients:
    def fd_check(self, spec, theta, values, log_values, mult, tol=1e-5):
        fun = fit_module._make_objective(values, log_values, mult, spec, 0.0)
        _, grad = fun(theta)
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fp, _ = fun(tp)
            fm, _ = fun(tm)
            fd = (fp - fm) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
            assert rel <= tol, (spec.label, i, grad[i], fd)

    def test_analytic_gradient_matches_fd(self):
        rng = substream(123)
        sample = sample_mixture(EP, MixtureParams((0.5, 0.5), (0.4,), 1.8), 500, rng)
        from tailmix.mixture import aggregate_counts

        values, mult = aggregate_counts(sample, 1)
        log_values = np.log(values)
        for spec in (P, EP, EEP):
            for r in range(3):
                theta = random_init(spec, substream(55, spec.n_exp, r))
                self.fd_check(spec, theta, values, log_values, mult)

    def test_literal_mode_gradient(self):
        spec = ModelSpec(1, exp_mode="paper-literal")
        values = np.array([1.0, 2.0, 3.0, 8.0, 50.0])
        mult = np.array([5.0, 3.0, 2.0, 1.0, 1.0])
        theta = np.array([0.6, 0.7, 2.1])
        self.fd_check(spec, theta, values, np.log(values), mult)


class TestFitModel:
    def test_recovers_ep_parameters(self):
        truth = MixtureParams((0.5, 0.5), (0.2,), 1.6)
        sample = sample_mixture(EP, truth, 4000, seed=21)
        fm = fit_model(sample, EP, FitConfig(restarts=6, seed=2))
        assert fm.params.alpha == pytest.approx(1.6, abs=0.15)
        assert fm.params.lambdas[0] == pytest.approx(0.2, abs=0.08)
        assert fm.params.weights[0] == pytest.approx(0.5, abs=0.1)
        assert fm.n == 4000

    def test_deterministic_given_seed(self):
        sample = sample_mixture(EP, MixtureParams((0.5, 0.5), (0.2,), 1.6), 1500, seed=3)
        a = fit_model(sample, EP, FitConfig(restarts=4, seed=10))
        b = fit_model(sample, EP, FitConfig(restarts=4, seed=10))
        assert a.loglik == b.loglik
        assert a.params == b.params

    def test_seed_insensitive_optimum(self):
        sample = sample_mixture(EP, MixtureParams((0.5, 0.5), (0.2,), 1.6), 1500, seed=3)
        a = fit_model(sample, EP, FitConfig(restarts=6, seed=10))
        b = fit_model(sample, EP, FitConfig(restarts=6, seed=11))
        assert a.loglik == pytest.approx(b.loglik, abs=1e-4)

    def test_diagnostics_and_bic(self):
        sample = sample_mixture(EP, MixtureParams((0.5, 0.5), (0.2,), 1.6), 1500, seed=3)
        fm = fit_model(sample, EP, FitConfig(restarts=4, seed=10))
        d = fm.diagnostics
        assert d["barrier_residual"] < 1e-5
        assert len(d["restart_logliks"]) == 4
        assert 0 <= d["restart_chosen"] < 4
        expected_bic = fm.loglik - 0.5 * np.log(1500) * 3
        assert fm.bic == pytest.approx(expected_bic, rel=1e-12)

    def test_accepts_binned_series_and_fingerprints(self):
        from tailmix.mixture import BinnedSeries

        sample = sample_mixture(P, MixtureParams((1.0,), (), 2.0), 800, seed=5)
        series = BinnedSeries(sample, bin_seconds=4.0)
        fm = fit_model(series, P, FitConfig(restarts=3, seed=1))
        assert fm.data_fingerprint == series.fingerprint()

    def test_eep_params_come_out_canonical(self):
        truth = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        sample = sample_mixture(EEP, truth, 3000, seed=9)
        fm = fit_model(sample, EEP, FitConfig(restarts=5, seed=4))
        assert fm.params.lambdas[0] >= fm.params.lambdas[1]
        assert sum(fm.params.weights) == pytest.approx(1.0, abs=1e-12)

    def test_all_restarts_failing_raises_fit_error(self, monkeypatch):
        def explode(*args, **kwargs):
            raise FitError("boom")

        monkeypatch.setattr(fit_module, "_bfgs_min", explode)
        sample = np.array([1, 2, 3, 4, 5])
        with pytest.raises(FitError) as info:
            fit_model(sample, P, FitConfig(restarts=3, seed=1))
        assert len(info.value.partial["restart_logliks"]) == 3

    def test_x_min_respected(self):
        spec = ModelSpec(1, x_min=3)
        truth = MixtureParams((0.5, 0.5), (0.5,), 2.0)
        sample = sample_mixture(spec, truth, 2000, seed=13)
        assert sample.min() >= 3
        fm = fit_model(sample, spec, FitConfig(restarts=4, seed=2))
        assert fm.params.alpha == pytest.approx(2.0, abs=0.3)


def test_theta_to_params_roundtrip():
    theta = np.array([0.3, 0.4, 1.5, 0.15, 1.6])
    params = theta_to_params(theta, EEP)
    assert params.weights == pytest.approx((0.3, 0.4, 0.3))
    assert params.lambdas == (1.5, 0.15)
    assert params.alpha == 1.6


def test_fitted_model_is_frozen():
    sample = sample_mixture(P, MixtureParams((1.0,), (), 2.0), 500, seed=5)
    fm = fit_model(sample, P, FitConfig(restarts=2, seed=1))
    assert isinstance(fm, FittedModel)
    with pytest.raises(AttributeError):
        fm.loglik = 0.0
