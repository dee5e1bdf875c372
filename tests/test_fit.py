"""Optimizer: slack geometry, initialization, gradients, recovery."""

import math
import numpy as np
import pytest

from tailmix import kernels
from tailmix.errors import DataError, DomainError, FitError
from tailmix.fit import (
    FitConfig,
    FittedModel,
    fit_model,
    fit_models,
    random_init,
    slack_system,
    theta_to_params,
)
from tailmix import fit as fit_module
from tailmix.mixture import (
    MixtureParams,
    ModelSpec,
    aggregate_counts,
    log_likelihood,
    sample_mixture,
)
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

    def test_rate_ranges(self):
        lo, hi = np.exp(fit_module.LOG_SLOW_LAMBDA_INIT_RANGE)
        ep = np.array([random_init(EP, substream(89, r))[1] for r in range(200)])
        eep = np.array([random_init(EEP, substream(89, r))[2:4] for r in range(200)])
        assert (ep >= fit_module.LAMBDA_INIT_RANGE[0]).all() and (ep <= 3.0).all()
        assert (eep >= lo).all() and (eep <= hi).all()
        # with two rates, one is log-uniform: often slow, the other in the body
        assert (eep[:, 1] < fit_module.LAMBDA_INIT_RANGE[0]).mean() > 0.3
        assert (eep[:, 0] >= fit_module.LAMBDA_INIT_RANGE[0]).all()


class TestGradients:
    def fd_check(self, spec, theta, values, mult, tol=1e-5):
        objective = fit_module._objective([(values, mult)], [0], spec)

        def fun(t):
            f, g, hess = objective(t[None], np.zeros(1, dtype=np.int64))
            return f[0], g[0], hess[0]

        _, grad, hess = fun(theta)
        fd_hess = np.empty_like(hess)
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fp, gp, _ = fun(tp)
            fm, gm, _ = fun(tm)
            fd = (fp - fm) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
            assert rel <= tol, (spec.label, i, grad[i], fd)
            fd_hess[:, i] = (gp - gm) / (2 * h)
        # the Hessian, mapped to theta through the simplex Jacobian
        np.testing.assert_allclose(hess, fd_hess, rtol=tol,
                                   atol=tol * np.abs(hess).max())

    def test_analytic_gradient_matches_fd(self):
        rng = substream(123)
        sample = sample_mixture(EP, MixtureParams((0.5, 0.5), (0.4,), 1.8), 500, rng)
        from tailmix.mixture import aggregate_counts

        values, mult = aggregate_counts(sample, 1)
        for spec in (P, EP, EEP):
            for r in range(3):
                theta = random_init(spec, substream(55, spec.n_exp, r))
                self.fd_check(spec, theta, values, mult)


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
        for rep in d["restarts"]:
            assert rep["stage_status"] == ["converged"] * 3
            assert 0.0 <= rep["newton_decrement"] <= fit_module.NEWTON_TOL
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
        # no sort after the fit: the slack system keeps every iterate at
        # rate1 > rate2, so the returned point satisfies it strictly
        truth = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        sample = sample_mixture(EEP, truth, 3000, seed=9)
        fm = fit_model(sample, EEP, FitConfig(restarts=5, seed=4))
        theta = np.array([*fm.params.weights[:2], *fm.params.lambdas, fm.params.alpha])
        a, b = slack_system(EEP)
        assert (a @ theta + b > 0.0).all()  # the last slack is rate1 - rate2
        assert fm.params.lambdas[0] > fm.params.lambdas[1]
        assert sum(fm.params.weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_non_positive_restarts_rejected(self, restarts):
        msg = f"restarts must be a positive integer, got {restarts}"
        with pytest.raises(DomainError, match=msg):
            FitConfig(restarts=restarts)

    def test_all_restarts_failing_raises_fit_error(self, monkeypatch):
        real = kernels.mix_loglik_grad

        def nan_loglik(*args, **kwargs):
            ll, *rest = real(*args, **kwargs)
            return (np.full_like(ll, np.nan), *rest)

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
        fun = fit_module._objective([(values, mult)], [0], spec)
        a, b = slack_system(spec)
        ll, grad, hess = fun(theta[None], np.zeros(1, dtype=np.int64))
        weight = fit_module.BARRIER_WEIGHTS[-1]
        s = fit_module._slacks(a, b, theta[None])
        neg_phi, g, h = fit_module._barrier(a, s, ll, grad, hess, np.full(1, weight),
                                            np.full(1, fm.n))
        assert fm.diagnostics["barrier_residual"] == abs(-fm.n * neg_phi[0] - fm.loglik)
        assert fm.loglik == ll[0]  # raw, no barrier term
        # the decrement lambda^2 / 2 = -g.d / 2 of the last stage's last iterate
        d = fit_module._newton_directions(g, h)
        chosen = fm.diagnostics["restarts"][fm.diagnostics["restart_chosen"]]
        assert chosen["newton_decrement"] == -0.5 * fit_module._row_dot(d, g)[0]

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
    # the one exponential form, passed through ModelSpec's kept field
    @pytest.mark.parametrize("exp_mode", ["discrete"])
    @pytest.mark.parametrize("n_exp", [0, 1, 2])
    def test_objective_sees_only_feasible_points(self, n_exp, exp_mode, x_min,
                                                 monkeypatch):
        real = fit_module._objective
        rows_seen = []

        def checked(fits, starts, spec):
            fun = real(fits, starts, spec)
            a, b = slack_system(spec)

            def loglik_grad(theta, rows):
                assert ((a @ theta[:, :, None])[..., 0] + b > 0.0).all()
                rows_seen.append(theta.shape[0])
                return fun(theta, rows)

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


class TestReportedLoglik:
    """A fit's reported loglik is log_likelihood at its params, exactly:
    the fit and the density sum the same log densities the same way."""

    TRUTH = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)

    def samples(self, x_min):
        spec = ModelSpec(2, x_min=x_min)
        return [sample_mixture(spec, self.TRUTH, n, seed=s)
                for n, s in ((600, 21), (1500, 22))]

    @staticmethod
    def check(series, model):
        assert log_likelihood(series, model.spec, model.params) == model.loglik

    @pytest.mark.parametrize("x_min", [1, 3])
    def test_fit_model_and_fit_models(self, x_min):
        samples = self.samples(x_min)
        cfgs = [FitConfig(restarts=3, seed=s) for s in (5, 6)]
        for n_exp in (0, 1, 2):
            spec = ModelSpec(n_exp, x_min=x_min)
            self.check(samples[0], fit_model(samples[0], spec, cfgs[0]))
            for sample, model in zip(samples, fit_models(samples, spec, cfgs)):
                self.check(sample, model)

    def test_select_many(self):
        from tailmix.select import select_many

        samples = self.samples(1)
        cfgs = [FitConfig(restarts=3, seed=s) for s in (5, 6)]
        sels = select_many(samples, cfgs, eep_always=True)
        for sample, sel in zip(samples, sels):
            assert set(sel.models) == {"P", "EP", "EEP"}
            for model in sel.models.values():
                self.check(sample, model)


class TestLockstep:
    """All restarts run together equal each restart run alone, bit for bit."""

    @pytest.mark.parametrize("x_min", [1, 3])
    # the one exponential form, passed through ModelSpec's kept field
    @pytest.mark.parametrize("exp_mode", ["discrete"])
    @pytest.mark.parametrize("n_exp", [0, 1, 2])
    def test_rows_equal_restarts_run_alone(self, n_exp, exp_mode, x_min):
        truth = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        sample = sample_mixture(ModelSpec(1, x_min=x_min), truth, 1200, seed=31)
        spec = ModelSpec(n_exp, x_min=x_min, exp_mode=exp_mode)
        values, mult = aggregate_counts(sample, x_min)
        fun = fit_module._objective([(values, mult)], [0], spec)
        a, b = slack_system(spec)
        theta0 = np.array([random_init(spec, substream(8, r)) for r in range(5)])
        n = np.full(5, mult.sum())
        raw = n_exp == 1  # as fit_model runs EP
        batch = fit_module._lockstep(fun, a, b, theta0.reshape(5, spec.dof), n, raw)
        for r in range(5):
            alone = fit_module._lockstep(fun, a, b, theta0[r : r + 1].reshape(1, -1),
                                         n[r : r + 1], raw)
            np.testing.assert_array_equal(batch[0][r], alone[0][0])  # theta
            assert batch[1][r] == alone[1][0]  # last stage's objective
            np.testing.assert_array_equal(batch[2][r], alone[2][0])  # gradient
            assert batch[3][r] == alone[3][0]  # Newton decrement
            assert batch[4][r] == alone[4][0]  # log-likelihood
            assert batch[5][r] == alone[5][0]  # iterations
            assert batch[6][r] == alone[6][0]  # stage statuses
            # a live restart: its log-likelihood is finite
            assert np.isfinite(batch[4][r])

    @pytest.mark.parametrize("n_exp", [0, 1, 2])
    def test_iteration_cap_ends_a_stage_and_opens_the_next(self, monkeypatch,
                                                           n_exp):
        # at a cap of 2 Newton iterations most stages end "maxiter"; each
        # hands its iterate to the next stage, and batching changes no bit
        monkeypatch.setattr(fit_module, "MAX_INNER_ITERS", 2)
        truth = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        sample = sample_mixture(EP, truth, 1200, seed=31)
        spec = ModelSpec(n_exp)
        values, mult = aggregate_counts(sample, 1)
        fun = fit_module._objective([(values, mult)], [0], spec)
        a, b = slack_system(spec)
        theta0 = np.array([random_init(spec, substream(8, r)) for r in range(5)])
        n, raw = np.full(5, mult.sum()), n_exp == 1
        batch = fit_module._lockstep(fun, a, b, theta0, n, raw)
        statuses = batch[6]
        assert sum(s.count("maxiter") for s in statuses) >= 5
        for r, status in enumerate(statuses):
            # every stage ran, the ones after a capped stage too
            assert len(status) == len(fit_module.BARRIER_WEIGHTS)
            assert set(status) <= {"maxiter", "converged"}
            # a capped stage counts its 2 iterations; a converged one
            # ends before its first step (0) or after it (1)
            capped, converged = status.count("maxiter"), status.count("converged")
            assert 2 * capped <= batch[5][r] <= 2 * capped + converged
            alone = fit_module._lockstep(fun, a, b, theta0[r : r + 1], n[r : r + 1],
                                         raw)
            np.testing.assert_array_equal(batch[0][r], alone[0][0])  # theta
            np.testing.assert_array_equal(batch[2][r], alone[2][0])  # gradient
            for i in (1, 3, 4, 5, 6):
                assert batch[i][r] == alone[i][0]

    @pytest.mark.parametrize("x_min", [1, 3])
    # the one exponential form, passed through ModelSpec's kept field
    @pytest.mark.parametrize("exp_mode", ["discrete"])
    @pytest.mark.parametrize("n_exp", [0, 1, 2])
    def test_fit_models_equal_fits_run_alone(self, n_exp, exp_mode, x_min):
        # series of different sizes, seeds and restart counts, with a
        # degenerate series in the middle of the batch
        truth = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        series = [sample_mixture(ModelSpec(2, x_min=x_min), truth, n, seed=n)
                  for n in (300, 800, 1500)]
        series.insert(1, np.full(40, x_min + 2))
        configs = [FitConfig(restarts=r, seed=s)
                   for r, s in ((3, 1), (2, 2), (4, 3), (2, 4))]
        spec = ModelSpec(n_exp, x_min=x_min, exp_mode=exp_mode)
        batch = fit_module.fit_models(series, spec, configs)
        for j, (counts, config) in enumerate(zip(series, configs)):
            if j == 1:
                assert isinstance(batch[j], DataError)
                with pytest.raises(DataError, match=str(batch[j])):
                    fit_model(counts, spec, config)
                continue
            alone = fit_model(counts, spec, config)
            assert isinstance(batch[j], FittedModel)
            assert batch[j].params == alone.params
            assert batch[j].loglik == alone.loglik
            assert batch[j].n == alone.n
            assert batch[j].data_fingerprint == alone.data_fingerprint
            assert batch[j].diagnostics == alone.diagnostics

    def test_one_zeta_call_per_objective_round(self, monkeypatch):
        # zeta depends on alpha and x_min only, so one call covers the
        # rows of every fit in the lockstep
        truth = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        series = [sample_mixture(EP, truth, n, seed=9) for n in (600, 2500)]
        configs = [FitConfig(restarts=3, seed=s) for s in (1, 2)]
        calls = {"rounds": 0, "zeta": 0, "kernel": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        real_objective = fit_module._objective
        monkeypatch.setattr(fit_module, "_objective",
                            lambda *args: counted("rounds", real_objective(*args)))
        monkeypatch.setattr(kernels, "zeta_pair", counted("zeta", kernels.zeta_pair))
        monkeypatch.setattr(kernels, "mix_loglik_grad",
                            counted("kernel", kernels.mix_loglik_grad))
        fits = fit_module.fit_models(series, EP, configs)
        assert all(isinstance(f, FittedModel) for f in fits)
        assert calls["rounds"] > 0
        assert calls["zeta"] == calls["rounds"]
        # both fits were evaluated in some rounds: one kernel call each
        assert calls["rounds"] < calls["kernel"] <= 2 * calls["rounds"]

    def test_fit_models_isolate_a_failed_fit(self, monkeypatch):
        # every restart of the second fit fails; the others are untouched
        real = kernels.mix_loglik_grad
        sizes = []

        def nan_for_the_second(x, *args, **kwargs):
            ll, *rest = real(x, *args, **kwargs)
            if x.shape[0] == sizes[1]:
                ll = np.full_like(ll, np.nan)
            return (ll, *rest)

        truth = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        series = [sample_mixture(EP, truth, n, seed=5) for n in (600, 2500, 900)]
        sizes.extend(aggregate_counts(s, 1)[0].shape[0] for s in series)
        assert len(set(sizes)) == 3
        configs = [FitConfig(restarts=3, seed=s) for s in (1, 2, 3)]
        want = [fit_model(s, EP, c) for s, c in zip(series, configs)]
        monkeypatch.setattr(kernels, "mix_loglik_grad", nan_for_the_second)
        got = fit_module.fit_models(series, EP, configs)
        assert isinstance(got[1], FitError)
        assert str(got[1]) == "all 3 restarts failed for model EP"
        assert len(got[1].partial["restart_logliks"]) == 3
        for j in (0, 2):
            assert got[j].params == want[j].params
            assert got[j].diagnostics == want[j].diagnostics
        with pytest.raises(FitError, match="all 3 restarts failed"):
            fit_model(series[1], EP, configs[1])

    def test_some_restarts_failing_leave_the_fit_to_the_others(self, monkeypatch):
        # the starting evaluation is NaN on every other restart of each
        # fit; those restarts fail, and the fit is the best of the rest
        real = fit_module._objective

        def half_failing(fits, starts, spec):
            fun, first = real(fits, starts, spec), True

            def call(theta, rows):
                nonlocal first
                ll, grad, hess = fun(theta, rows)
                if first:  # the starting evaluation
                    first = False
                    fit_of = np.searchsorted(starts, rows, side="right") - 1
                    local = rows - np.asarray(starts)[fit_of]
                    ll = np.where(local % 2 == 0, np.nan, ll)
                return ll, grad, hess
            return call

        monkeypatch.setattr(fit_module, "_objective", half_failing)
        truth = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        sample = sample_mixture(EP, truth, 800, seed=5)
        fitted = fit_model(sample, EP, FitConfig(restarts=4, seed=1))
        diag = fitted.diagnostics
        for r in (0, 2):
            assert diag["restarts"][r] == {"error": "starting log-likelihood is not finite"}
            assert diag["restart_logliks"][r] == -np.inf
        for r in (1, 3):
            assert set(diag["restarts"][r]) == {
                "iters", "stage_status", "grad_inf_norm", "newton_decrement"}
            assert np.isfinite(diag["restart_logliks"][r])
        assert diag["restart_chosen"] in (1, 3)
        assert fitted.loglik == diag["restart_logliks"][diag["restart_chosen"]]

        # in a batch with a series that _prepare refuses, every other fit
        # equals fitting it alone
        series = [sample, np.full(40, 3), sample_mixture(EP, truth, 1500, seed=6)]
        configs = [FitConfig(restarts=r, seed=s) for r, s in ((4, 1), (2, 2), (3, 3))]
        batch = fit_models(series, EP, configs)
        assert isinstance(batch[1], DataError)
        for j in (0, 2):
            alone = fit_model(series[j], EP, configs[j])
            assert batch[j].params == alone.params
            assert batch[j].loglik == alone.loglik
            assert batch[j].diagnostics == alone.diagnostics
        assert batch[0].diagnostics == diag
        assert batch[2].diagnostics["restart_logliks"][2] == -np.inf

    def test_fit_models_needs_one_config_per_series(self):
        with pytest.raises(ValueError):
            fit_module.fit_models([[1, 2, 3], [1, 2, 4]], P, [FitConfig()])


class TestRoundShortcuts:
    """Each shortcut a lockstep round takes equals the general path, bit
    for bit, on the rows that take it."""

    @pytest.mark.parametrize("x_min", [1, 3])
    @pytest.mark.parametrize("n_exp", [0, 1, 2])
    def test_one_fit_objective_equals_the_sliced_path(self, n_exp, x_min):
        # one fit calls the kernel on all its rows at once; many fits cut
        # the rows by fit, call the kernel per fit and join the parts
        spec = ModelSpec(n_exp, x_min=x_min)
        truth = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        fits = [aggregate_counts(sample_mixture(ModelSpec(2, x_min=x_min), truth,
                                                size, seed=size), x_min)
                for size in (900, 400)]
        theta = np.array([random_init(spec, substream(12, r)) for r in range(7)])
        theta = theta.reshape(7, spec.dof)
        one = fit_module._objective(fits[:1], [0], spec)
        many = fit_module._objective(fits, [0, 4], spec)
        # rows 0-3 belong to the first fit; its rows alone make one part
        for rows in (np.arange(7), np.arange(4), np.array([1, 3, 5])):
            mine = rows < 4
            want = one(theta[rows[mine]], np.arange(mine.sum()))
            got = many(theta[rows], rows)
            for w, g in zip(want, got, strict=True):
                np.testing.assert_array_equal(w, g[mine])

    def test_skipped_levenberg_shift_equals_a_zero_shift(self):
        # with no row below the eigenvalue floor no shift is formed; in a
        # batch where one row is below it, the others get a zero shift
        rng = substream(92)
        root = rng.normal(size=(6, 4, 4))
        h = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(4)
        g = rng.normal(size=(6, 4))
        low_g, low_h = rng.normal(size=(1, 4)), np.diag([2.0, -1.0, 0.5, 1.0])[None]
        plain = fit_module._newton_directions(g, h)
        shifted = fit_module._newton_directions(low_g, low_h)
        for at in (0, 3, 6):
            mixed = fit_module._newton_directions(
                np.insert(g, at, low_g, axis=0), np.insert(h, at, low_h, axis=0)
            )
            np.testing.assert_array_equal(np.delete(mixed, at, axis=0), plain)
            np.testing.assert_array_equal(mixed[at], shifted[0])

    def test_reused_slacks_equal_slacks_formed_again(self, monkeypatch):
        # the lockstep hands _barrier the slacks its scan formed; forming
        # them again from the trial points changes no bit of any fit
        truth = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        sample = sample_mixture(EP, truth, 1500, seed=44)
        want = [fit_model(sample, spec, FitConfig(restarts=6, seed=3))
                for spec in (P, EP, EEP)]
        real = fit_module._feasible_steps

        def fresh_slacks(a, b, x, d, step):
            found, points, _ = real(a, b, x, d, step)
            return found, points, fit_module._slacks(a, b, points)

        monkeypatch.setattr(fit_module, "_feasible_steps", fresh_slacks)
        for fm in want:
            got = fit_model(sample, fm.spec, FitConfig(restarts=6, seed=3))
            assert got.params == fm.params and got.loglik == fm.loglik
            assert got.diagnostics == fm.diagnostics


class TestBarrier:
    @pytest.mark.parametrize("spec", [P, EP, EEP], ids=lambda s: s.label)
    def test_hessian_matches_differences_of_the_gradient(self, spec):
        a, b = slack_system(spec)
        dof = spec.dof
        zeros = (np.zeros(1), np.zeros((1, dof)), np.zeros((1, dof, dof)))

        def barrier(theta):
            s = fit_module._slacks(a, b, theta[None])
            return fit_module._barrier(a, s, *zeros, np.full(1, 0.3), np.full(1, 7.0))

        for r in range(3):
            theta = random_init(spec, substream(71, spec.n_exp, r))
            _, _, hess = barrier(theta)
            fd = np.empty_like(hess[0])
            for i in range(spec.dof):
                h = 1e-6 * abs(theta[i])
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd[:, i] = (barrier(up)[1][0] - barrier(down)[1][0]) / (2.0 * h)
            np.testing.assert_allclose(hess[0], fd, rtol=1e-6,
                                       atol=1e-9 * np.abs(hess).max())

    def test_raw_terms_enter_negated_per_observation(self):
        a, b = slack_system(EP)
        theta = np.array([[0.3, 0.8, 2.2]])
        rng = substream(73)
        ll, grad = rng.normal(size=1), rng.normal(size=(1, 3))
        hess = rng.normal(size=(1, 3, 3))
        zeros = (np.zeros(1), np.zeros((1, 3)), np.zeros((1, 3, 3)))
        s = fit_module._slacks(a, b, theta)
        weight, n = np.full(1, 0.01), np.full(1, 40.0)
        f0, g0, h0 = fit_module._barrier(a, s, *zeros, weight, n)
        f, g, h = fit_module._barrier(a, s, ll, grad, hess, weight, n)
        np.testing.assert_allclose(f - f0, -ll / 40.0, rtol=1e-12)
        np.testing.assert_allclose(g - g0, -grad / 40.0, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(h - h0, -hess / 40.0, rtol=1e-12, atol=1e-15)


class TestNewtonDirections:
    def test_positive_definite_hessian_takes_the_plain_newton_step(self):
        rng = substream(81)
        root = rng.normal(size=(4, 3, 3))
        h = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(3)
        g = rng.normal(size=(4, 3))
        d = fit_module._newton_directions(g, h)
        np.testing.assert_allclose(d, -np.linalg.solve(h, g[:, :, None])[..., 0],
                                   rtol=1e-10)

    def test_indefinite_hessian_is_shifted_to_a_descent_direction(self):
        h = np.array([[[2.0, 0.5, 0.0], [0.5, -1.0, 0.2], [0.0, 0.2, 0.5]]])
        g = np.array([[0.3, -0.4, 0.1]])
        w = np.linalg.eigvalsh(h[0])
        assert w[0] < 0.0 < w[-1]
        d = fit_module._newton_directions(g, h)
        # the shift acts on the Jacobi-scaled Hessian D^-1/2 h D^-1/2
        scale = np.diag(np.abs(np.diag(h[0])))
        sig = 1.0 / np.sqrt(np.diag(scale))
        w = np.linalg.eigvalsh(h[0] * np.outer(sig, sig))
        floor = fit_module._EIG_FLOOR * np.abs(w).max()
        mu = floor - w[0] + np.abs(g[0] * sig).max()
        np.testing.assert_allclose((h[0] + mu * scale) @ d[0], -g[0], rtol=1e-10)
        assert d[0] @ g[0] < 0.0

    def test_badly_scaled_hessian_keeps_its_small_eigenvalues(self):
        # a slack near 0 puts 1e16 on one diagonal entry; unscaled, the
        # eigenvalue near 1 is lost in rounding of the large one
        h = np.array([[[1e16, 1e7, 0.0], [1e7, 1.0, 0.3], [0.0, 0.3, 2.0]]])
        g = np.array([[1e8, -0.5, 0.2]])
        d = fit_module._newton_directions(g, h)
        np.testing.assert_allclose(d, -np.linalg.solve(h, g[:, :, None])[..., 0],
                                   rtol=1e-9)

    @pytest.mark.parametrize("raw", [False, True])
    def test_first_trial_point(self, raw):
        # log-likelihood -n (alpha - 2)^2: the Newton step from 3 lands on
        # the peak; the raw first step is -n g, halved to a feasible point
        a, b = slack_system(P)
        n = 50.0
        seen = []

        def bowl(theta, rows):
            seen.append(theta.copy())
            u = theta[:, 0] - 2.0
            return -n * u**2, (-2.0 * n * u)[:, None], np.full((1, 1, 1), -2.0 * n)

        theta0 = np.array([[3.0]])
        _, g0, h0 = fit_module._barrier(a, fit_module._slacks(a, b, theta0),
                                        *bowl(theta0, [0]),
                                        np.full(1, fit_module.BARRIER_WEIGHTS[0]),
                                        np.full(1, n))
        seen.clear()
        fit_module._lockstep(bowl, a, b, theta0, np.full(1, n), raw)
        if raw:
            d0 = -n * g0[0, 0]
            t = 2.0 ** round(math.log2((seen[1][0, 0] - 3.0) / d0))
            assert t < 1.0 and seen[1][0, 0] == 3.0 + t * d0
        else:
            assert seen[1][0, 0] == 3.0 + fit_module._newton_directions(g0, h0)[0, 0]

    def test_stage_from_an_indefinite_start_converges_downhill(self):
        # a double well in alpha, log-likelihood -((alpha - 2.5)^2 - 1/4)^2
        # per observation: peaks at 2 and 3, a trough at 2.5. The start
        # 2.45 has negative curvature, where the plain Newton step would
        # climb to the trough.
        a, b = slack_system(P)
        n = 50.0

        def well(theta, rows):
            u = theta[:, 0] - 2.5
            return (-n * (u**2 - 0.25) ** 2, (-4.0 * n * u * (u**2 - 0.25))[:, None],
                    (n * (1.0 - 12.0 * u**2))[:, None, None])

        theta0 = np.array([[2.45]])
        _, g0, h0 = fit_module._barrier(a, fit_module._slacks(a, b, theta0),
                                        *well(theta0, [0]),
                                        np.full(1, fit_module.BARRIER_WEIGHTS[0]),
                                        np.full(1, n))
        assert h0[0, 0, 0] < 0.0
        d0 = fit_module._newton_directions(g0, h0)[0, 0]
        assert d0 * g0[0, 0] < 0.0 and d0 < 0.0  # downhill, away from the trough
        theta, _, _, dec, ll, _, status = fit_module._lockstep(
            well, a, b, theta0, np.full(1, n)
        )
        assert status[0] == ["converged"] * len(fit_module.BARRIER_WEIGHTS)
        assert 0.0 <= dec[0] <= fit_module.NEWTON_TOL
        assert theta[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert np.isfinite(ll[0])


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
        """Steps equal sequential halving; trial points equal x + t*d, and
        the slacks handed to the barrier equal those formed again there,
        bit for bit."""
        got, points, slacks = fit_module._feasible_steps(a, b, x, d, step)
        want = [_halving_reference(a, b, x[r], d[r], step[r]) for r in range(len(x))]
        np.testing.assert_array_equal(got, want)
        found = got > 0.0
        np.testing.assert_array_equal(
            points[found], x[found] + got[found, None] * d[found]
        )
        np.testing.assert_array_equal(
            slacks[found], fit_module._slacks(a, b, points[found])
        )
        return got

    def test_no_feasible_step_ends_stage_linesearch(self):
        a, b = slack_system(P)
        x = np.array([[2.0], [2.0]])
        # alpha - 1e20 * 2**-46 is far below 1: no step down to _MIN_STEP works
        d = np.array([[-1e20], [-0.1]])
        got, points, _ = fit_module._feasible_steps(a, b, x, d, np.ones(2))
        assert got[0] == 0.0 and got[1] == 1.0
        assert _halving_reference(a, b, x[0], d[0], 1.0) == 0.0

        calls = []

        def steep(theta, rows):
            # log-likelihood falling 1e20 per unit of alpha with unit
            # curvature: the first Newton direction leaves the feasible
            # set at every step
            calls.append(theta.copy())
            return (np.zeros(theta.shape[0]), np.full(theta.shape, -1e20),
                    np.full(theta.shape + (1,), -1.0))

        theta, _, _, _, ll, iters, status = fit_module._lockstep(
            steep, a, b, np.array([[2.0]]), np.ones(1)
        )
        assert status[0] == ["linesearch"] * len(fit_module.BARRIER_WEIGHTS)
        assert iters[0] == len(fit_module.BARRIER_WEIGHTS)
        assert theta[0, 0] == 2.0 and ll[0] == 0.0
        # the starting point only: stage starts reuse its stored value,
        # and no trial point is feasible
        assert len(calls) == 1

    def test_armijo_failures_halve_to_min_step_and_end_linesearch(self):
        a, b = slack_system(P)
        theta0 = np.array([[1.5], [3.0]])
        calls = []

        def uphill(theta, rows):
            # below alpha 2.5 the log-likelihood rises 100 per unit of
            # alpha, above it it falls, and the reported gradient has the
            # opposite sign; with unit curvature the Newton direction
            # follows the reported gradient: every trial fails Armijo,
            # and each row's trials stay on its side of 2.5
            calls.append(theta[:, 0].copy())
            sign = np.where(theta < 2.5, 1.0, -1.0)
            return (100.0 * (sign * theta)[:, 0], -100.0 * sign,
                    np.full(theta.shape + (1,), -1.0))

        theta, _, _, _, ll, iters, status = fit_module._lockstep(
            uphill, a, b, theta0, np.ones(2)
        )
        n_stages = len(fit_module.BARRIER_WEIGHTS)
        for r in range(2):
            assert status[r] == ["linesearch"] * n_stages
            assert np.isfinite(ll[r])
        np.testing.assert_array_equal(iters, [n_stages, n_stages])
        np.testing.assert_array_equal(theta, theta0)
        np.testing.assert_array_equal(ll, [150.0, -300.0])
        # each trial moves one row from its start along the stage's first
        # direction, the Newton direction -g / h of the barrier
        # objective; a stage's moves shrink
        moves = {0: [], 1: []}
        for point in np.concatenate(calls[1:]):
            r = int(point > 2.5)
            moves[r].append(abs(point - theta0[r, 0]))
        for r, delta in moves.items():
            cuts = (np.diff(delta) > 0).nonzero()[0] + 1
            assert len(cuts) == n_stages - 1
            grad = np.full((1, 1), 100.0 if r else -100.0)
            hess = np.full((1, 1, 1), -1.0)
            for weight, stage in zip(fit_module.BARRIER_WEIGHTS,
                                     np.split(np.array(delta), cuts)):
                s = fit_module._slacks(a, b, theta0[r:r + 1])
                _, g, h = fit_module._barrier(a, s, ll[r:r + 1], grad, hess,
                                              np.full(1, weight), np.ones(1))
                steps = stage / abs(g[0, 0] / h[0, 0, 0])
                # halvings from the first feasible step down to the
                # floor, and none below it
                np.testing.assert_allclose(steps[1:] / steps[:-1], 0.5, rtol=1e-2)
                assert fit_module._MIN_STEP < steps.min() < 2 * fit_module._MIN_STEP
        # 2**-8 .. 2**-46 and 2**-7 .. 2**-46 in each stage
        assert [len(m) for m in moves.values()] == [3 * 39, 3 * 40]


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
