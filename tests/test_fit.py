"""Optimizer: slack geometry, initialization, gradients, recovery."""

import numpy as np
import pytest

from tailmix import kernels
from tailmix.errors import DataError, DomainError, FitError
from tailmix.fit import (
    FitConfig,
    FittedModel,
    fit_model,
    random_init,
    slack_system,
    theta_to_params,
)
from tailmix import fit as fit_module
from tailmix.mixture import MixtureParams, ModelSpec, aggregate_counts, sample_mixture
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
        objective = fit_module._objective(values, log_values, mult, spec)

        def fun(t):
            f, g = objective(t[None])
            return f[0], g[0]

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

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_non_positive_restarts_rejected(self, restarts):
        msg = f"restarts must be a positive integer, got {restarts}"
        with pytest.raises(DomainError, match=msg):
            FitConfig(restarts=restarts)

    def test_all_restarts_failing_raises_fit_error(self, monkeypatch):
        real = kernels.mix_loglik_grad

        def nan_loglik(*args):
            ll, g_m, g_lam, g_alpha = real(*args)
            return np.full_like(ll, np.nan), g_m, g_lam, g_alpha

        monkeypatch.setattr(kernels, "mix_loglik_grad", nan_loglik)
        sample = np.array([1, 2, 3, 4, 5])
        with pytest.raises(FitError) as info:
            fit_model(sample, P, FitConfig(restarts=3, seed=1))
        assert len(info.value.partial["restart_logliks"]) == 3
        assert all("error" in rep for rep in info.value.partial["restarts"])

    @pytest.mark.parametrize("counts", [np.ones(500, dtype=int), [7], [3, 3, 3]])
    def test_fewer_than_two_distinct_counts_raise_data_error(self, counts):
        for spec in (P, EP, EEP):
            with pytest.raises(DataError, match="at least 2 distinct counts"):
                fit_model(counts, spec, FitConfig(restarts=2, seed=1))

    def test_distinct_counts_counted_at_or_above_x_min(self):
        spec = ModelSpec(0, x_min=3)
        with pytest.raises(DataError, match="x_min=3"):
            fit_model([3, 3, 3, 3], spec, FitConfig(restarts=2, seed=1))
        fm = fit_model([3, 4, 3, 9], spec, FitConfig(restarts=2, seed=1))
        assert fm.diagnostics["n_unique_values"] == 3

    def test_permuted_counts_give_the_same_fit_bit_for_bit(self):
        sample = sample_mixture(EP, MixtureParams((0.5, 0.5), (0.2,), 1.6), 1500, seed=3)
        shuffled = substream(12).permutation(sample)
        assert not np.array_equal(shuffled, sample)
        a = fit_model(sample, EP, FitConfig(restarts=4, seed=10))
        b = fit_model(shuffled, EP, FitConfig(restarts=4, seed=10))
        assert a.params == b.params
        assert a.loglik == b.loglik
        assert a.diagnostics == b.diagnostics
        assert a.data_fingerprint != b.data_fingerprint

    @pytest.mark.parametrize("spec", [P, EP, EEP], ids=lambda s: s.label)
    def test_barrier_residual_is_last_stage_gap_at_chosen_theta(self, spec):
        truth = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        sample = sample_mixture(EEP, truth, 2000, seed=9)
        fm = fit_model(sample, spec, FitConfig(restarts=4, seed=6))
        k = spec.n_exp
        theta = np.array(fm.params.weights[:k] + fm.params.lambdas + (fm.params.alpha,))
        values, mult = aggregate_counts(sample, spec.x_min)
        fun = fit_module._objective(values, np.log(values), mult, spec)
        a, b = slack_system(spec)
        ll, grad = fun(theta[None])
        weight = fit_module.BARRIER_WEIGHTS[-1]
        neg_phi = fit_module._barrier(a, b, theta[None], ll, grad, weight)[0][0]
        assert fm.diagnostics["barrier_residual"] == abs(-neg_phi - fm.loglik)
        assert fm.loglik == ll[0]  # raw, no barrier term

    def test_tied_restarts_pick_the_first(self, monkeypatch):
        real = fit_module.random_init
        monkeypatch.setattr(
            fit_module, "random_init", lambda spec, rng: real(spec, substream(3, 0))
        )
        sample = sample_mixture(EP, MixtureParams((0.5, 0.5), (0.2,), 1.6), 1500, seed=3)
        fm = fit_model(sample, EP, FitConfig(restarts=4, seed=10))
        assert len(set(fm.diagnostics["restart_logliks"])) == 1
        assert fm.diagnostics["restart_chosen"] == 0

    @pytest.mark.parametrize("x_min", [1, 3])
    @pytest.mark.parametrize("exp_mode", ["discrete", "paper-literal"])
    @pytest.mark.parametrize("n_exp", [0, 1, 2])
    def test_objective_sees_only_feasible_points(self, n_exp, exp_mode, x_min,
                                                 monkeypatch):
        real = fit_module._objective
        rows_seen = []

        def checked(values, log_values, mult, spec):
            fun = real(values, log_values, mult, spec)
            a, b = slack_system(spec)

            def loglik_grad(theta):
                assert ((a @ theta[:, :, None])[..., 0] + b > 0.0).all()
                rows_seen.append(theta.shape[0])
                return fun(theta)

            return loglik_grad

        monkeypatch.setattr(fit_module, "_objective", checked)
        truth = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        sample = sample_mixture(ModelSpec(1, x_min=x_min), truth, 1200, seed=31)
        spec = ModelSpec(n_exp, x_min=x_min, exp_mode=exp_mode)
        fit_model(sample, spec, FitConfig(restarts=4, seed=8))
        assert rows_seen[0] == 4 and len(rows_seen) > 1

    def test_x_min_respected(self):
        spec = ModelSpec(1, x_min=3)
        truth = MixtureParams((0.5, 0.5), (0.5,), 2.0)
        sample = sample_mixture(spec, truth, 2000, seed=13)
        assert sample.min() >= 3
        fm = fit_model(sample, spec, FitConfig(restarts=4, seed=2))
        assert fm.params.alpha == pytest.approx(2.0, abs=0.3)


class TestLockstep:
    """All restarts run together equal each restart run alone, bit for bit."""

    @pytest.mark.parametrize("x_min", [1, 3])
    @pytest.mark.parametrize("exp_mode", ["discrete", "paper-literal"])
    @pytest.mark.parametrize("n_exp", [0, 1, 2])
    def test_rows_equal_restarts_run_alone(self, n_exp, exp_mode, x_min):
        truth = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        sample = sample_mixture(ModelSpec(1, x_min=x_min), truth, 1200, seed=31)
        spec = ModelSpec(n_exp, x_min=x_min, exp_mode=exp_mode)
        values, mult = aggregate_counts(sample, x_min)
        fun = fit_module._objective(values, np.log(values), mult, spec)
        a, b = slack_system(spec)
        theta0 = np.array([random_init(spec, substream(8, r)) for r in range(5)])
        batch = fit_module._lockstep(fun, a, b, theta0.reshape(5, spec.dof))
        for r in range(5):
            alone = fit_module._lockstep(fun, a, b, theta0[r : r + 1].reshape(1, -1))
            np.testing.assert_array_equal(batch[0][r], alone[0][0])  # theta
            assert batch[1][r] == alone[1][0]  # last stage's objective
            np.testing.assert_array_equal(batch[2][r], alone[2][0])  # gradient
            assert batch[3][r] == alone[3][0]  # log-likelihood
            assert batch[4][r] == alone[4][0]  # iterations
            assert batch[5][r] == alone[5][0]  # stage statuses
            assert batch[6][r] is None and alone[6][0] is None


def _halving_reference(a, b, x, d, step):
    """Backtrack from step past infeasible points one trial at a time."""
    while step >= fit_module._MIN_STEP:
        if not ((a @ (x + step * d) + b) <= 0.0).any():
            return step
        step *= 0.5
    return 0.0


class TestFeasibleSteps:
    def test_scan_matches_sequential_halving(self):
        rng = substream(606)
        for spec in (P, EP, EEP):
            a, b = slack_system(spec)
            x = np.array([random_init(spec, substream(60, r)) for r in range(40)])
            x = x.reshape(40, spec.dof)
            d = rng.normal(size=x.shape) * 10.0 ** rng.uniform(-2, 15, size=(40, 1))
            step = 0.5 ** rng.integers(0, 6, size=40).astype(float)
            got = self._check_against_reference(a, b, x, d, step)
            # the draws cover a first-try step, a long scan, and no step
            assert (got == step).any()
            assert ((got > 0.0) & (got < 1e-3 * step)).any()
            assert (got == 0.0).any()
            # a batch whose current steps all pass, and the same batch
            # with one row sent down the ladder
            short = d * (1e-4 / np.abs(d).max(axis=1, keepdims=True))
            got = self._check_against_reference(a, b, x, short, step)
            assert (got == step).all()
            short[7] = d[7] * (1e4 / np.abs(d[7]).max())
            got = self._check_against_reference(a, b, x, short, step)
            assert 0.0 < got[7] < step[7]
            assert (np.delete(got, 7) == np.delete(step, 7)).all()

    @staticmethod
    def _check_against_reference(a, b, x, d, step):
        """Steps equal sequential halving; trial points equal x + t*d."""
        got, points = fit_module._feasible_steps(a, b, x, d, step)
        want = [_halving_reference(a, b, x[r], d[r], step[r]) for r in range(len(x))]
        np.testing.assert_array_equal(got, want)
        found = got > 0.0
        np.testing.assert_array_equal(
            points[found], x[found] + got[found, None] * d[found]
        )
        return got

    def test_no_feasible_step_ends_stage_linesearch(self):
        a, b = slack_system(P)
        x = np.array([[2.0], [2.0]])
        # alpha - 1e20 * 2**-46 is far below 1: no step down to _MIN_STEP works
        d = np.array([[-1e20], [-0.1]])
        got, points = fit_module._feasible_steps(a, b, x, d, np.ones(2))
        assert got[0] == 0.0 and got[1] == 1.0
        assert _halving_reference(a, b, x[0], d[0], 1.0) == 0.0

        calls = []

        def steep(theta):
            # log-likelihood falling 1e20 per unit of alpha: the first
            # BFGS direction leaves the feasible set at every step
            calls.append(theta.copy())
            return np.zeros(theta.shape[0]), np.full(theta.shape, -1e20)

        theta, _, _, ll, iters, status, errors = fit_module._lockstep(
            steep, a, b, np.array([[2.0]])
        )
        assert status[0] == ["linesearch"] * len(fit_module.BARRIER_WEIGHTS)
        assert iters[0] == len(fit_module.BARRIER_WEIGHTS)
        assert theta[0, 0] == 2.0 and ll[0] == 0.0 and errors[0] is None
        # the starting point only: stage starts reuse its stored value,
        # and no trial point is feasible
        assert len(calls) == 1


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
