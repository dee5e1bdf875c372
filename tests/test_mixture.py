"""Mixture family: types, densities, responsibilities, classification."""

import re
import warnings

import numpy as np
import pytest

import frozen_values as fv
from tailmix import kernels
from tailmix import mixture as mixture_module
from tailmix.errors import ContractError, DataError, DomainError
from tailmix.mixture import (
    BinnedSeries,
    MixtureParams,
    ModelSpec,
    as_series,
    log_likelihood,
    mixture_log_pmf,
    mixture_pmf,
    responsibilities,
    sample_mixture,
    tail_threshold,
)
from tailmix.seeding import child_seed, substream

EP = ModelSpec(n_exp=1)
EEP = ModelSpec(n_exp=2)
P = ModelSpec(n_exp=0)


class TestModelSpec:
    def test_labels_and_dof(self):
        assert (P.label, EP.label, EEP.label) == ("P", "EP", "EEP")
        assert (P.dof, EP.dof, EEP.dof) == (1, 3, 5)
        assert EEP.n_components == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            ModelSpec(n_exp=3)
        with pytest.raises(DomainError):
            ModelSpec(n_exp=1, x_min=0)
        with pytest.raises(DomainError, match="x_min must be an integer from 1 to 2"):
            ModelSpec(n_exp=1, x_min=2**52 + 1)
        with pytest.raises(DomainError, match="must be 'discrete'"):
            ModelSpec(n_exp=1, exp_mode="fancy")


class TestMixtureParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            MixtureParams((0.5, 0.6), (0.2,), 1.6)  # sum > 1
        with pytest.raises(DomainError):
            MixtureParams((1.2, -0.2), (0.2,), 1.6)
        with pytest.raises(DomainError):
            MixtureParams((0.5, 0.5), (0.2, 0.3), 1.6)  # length mismatch
        with pytest.raises(DomainError):
            MixtureParams((0.5, 0.5), (-0.2,), 1.6)
        with pytest.raises(DomainError):
            MixtureParams((0.5, 0.5), (0.2,), 1.0)
        # non-finite values fail by name: NaN weights pass a <= 0 test and
        # a sum-to-1 test alike
        nan, inf = float("nan"), float("inf")
        for weights, lambdas, alpha, field in [
            ((nan, nan), (0.2,), 1.6, "weights"),
            ((0.5, nan), (0.2,), 1.6, "weights"),
            ((0.5, 0.5), (nan,), 1.6, "rates"),
            ((0.5, 0.5), (inf,), 1.6, "rates"),
            ((0.3, 0.4, 0.3), (1.5, inf), 1.6, "rates"),
            ((0.5, 0.5), (0.2,), inf, "alpha"),
            ((0.5, 0.5), (0.2,), nan, "alpha"),
        ]:
            with pytest.raises(DomainError, match=f"^{field} must .*finite"):
                MixtureParams(weights, lambdas, alpha)

    def test_loglik_invariant_under_component_relabeling(self):
        a = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        b = MixtureParams((0.4, 0.3, 0.3), (0.15, 1.5), 1.6)
        counts = np.array([1, 2, 3, 5, 9, 40, 200])
        assert log_likelihood(counts, EEP, a) == pytest.approx(
            log_likelihood(counts, EEP, b), rel=1e-14
        )

    def test_compat_checked(self):
        with pytest.raises(ContractError):
            log_likelihood(np.array([1, 2]), EEP, MixtureParams((0.5, 0.5), (0.2,), 1.6))


class TestDensities:
    def test_frozen_pmf_value(self):
        params = MixtureParams((0.5, 0.5), (np.log(2.0),), 2.0)
        assert mixture_pmf(1, EP, params) == pytest.approx(fv.EP_PMF_AT_1, abs=1e-9)
        assert mixture_log_pmf(1, EP, params) == pytest.approx(
            fv.EP_LOG_PMF_AT_1, abs=1e-9
        )

    def test_mixture_is_convex_combination(self):
        params = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        xs = np.array([1, 2, 10, 100])
        z = kernels.zeta_pair(params.alpha, 1.0)[0]
        comp = np.exp(kernels.component_logs(
            xs.astype(np.float64), np.log(xs), np.ones(3), np.array(params.lambdas),
            params.alpha, 1.0, z,
        ))
        direct = (np.array(params.weights)[:, None] * comp).sum(axis=0)
        np.testing.assert_allclose(mixture_pmf(xs, EEP, params), direct, rtol=1e-12)

    # the one exponential form, passed through ModelSpec's kept field
    @pytest.mark.parametrize("exp_mode", ["discrete"])
    @pytest.mark.parametrize(
        "n_exp, params",
        [
            (0, MixtureParams((1.0,), (), 1.7)),
            (1, MixtureParams((0.5, 0.5), (0.3,), 1.7)),
            (2, MixtureParams((0.3, 0.3, 0.4), (1.2, 0.2), 1.7)),
        ],
        ids=["P", "EP", "EEP"],
    )
    def test_log_likelihood_equals_weighted_log_pmf_sum(self, n_exp, params, exp_mode):
        spec = ModelSpec(n_exp, exp_mode=exp_mode)
        counts = np.array([1, 1, 2, 3, 3, 3, 17, 120])
        direct = mixture_log_pmf(counts, spec, params).sum()
        assert log_likelihood(counts, spec, params) == pytest.approx(direct, rel=1e-12)

    def test_densities_name_value_below_x_min(self):
        params = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        spec = ModelSpec(n_exp=1, x_min=2)
        for fn in (mixture_log_pmf, responsibilities):
            with pytest.raises(DomainError, match="index 2"):
                fn(np.array([3, 2, 1, 5]), spec, params)

    def test_log_likelihood_names_offending_index(self):
        params = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        with pytest.raises(DataError, match="index 2"):
            log_likelihood(np.array([3, 1, 0, 5]), EP, params)
        with pytest.raises(DataError, match="empty"):
            log_likelihood(np.array([], dtype=np.int64), EP, params)

    @pytest.mark.parametrize("counts", [[1.5, 2, 3], np.ones((2, 3), dtype=int)],
                             ids=["non-integer", "2-d"])
    def test_log_likelihood_takes_counts_as_the_fit_does(self, counts):
        from tailmix.fit import FitConfig, fit_model

        params = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        with pytest.raises(DataError) as fit_info:
            fit_model(counts, EP, FitConfig(restarts=2, seed=1))
        with pytest.raises(DataError) as ll_info:
            log_likelihood(counts, EP, params)
        assert str(ll_info.value) == str(fit_info.value)

    def test_as_series_passes_a_series_through(self):
        series = BinnedSeries(np.array([3, 1, 4]), bin_seconds=8.0, source_id="s")
        assert as_series(series) is series
        raw = as_series([3, 1, 4])
        assert raw.bin_seconds == 1.0
        np.testing.assert_array_equal(raw.counts, [3, 1, 4])


class TestResponsibilities:
    PARAMS = MixtureParams((0.5, 0.5), (1.0,), 2.0)

    def test_rows_sum_to_one(self):
        resp = responsibilities(np.arange(1, 50), EP, self.PARAMS)
        assert resp.shape == (49, 2)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_frozen_tail_responsibility(self):
        resp = responsibilities(20, EP, self.PARAMS)
        assert resp.shape == (2,)
        assert resp[-1] == pytest.approx(fv.TAIL_RESP_AT_20, abs=1e-9)

    def test_tail_threshold_frozen_case(self):
        assert tail_threshold(EP, self.PARAMS) == fv.TAIL_THRESHOLD_RATE1
        resp3 = responsibilities(3, EP, self.PARAMS)[-1]
        resp4 = responsibilities(4, EP, self.PARAMS)[-1]
        assert resp3 < 0.5 <= resp4

    def test_tail_threshold_starts_the_final_tail_run(self):
        params = MixtureParams((0.3, 0.4, 0.3), (2.5, 0.6), 2.2)
        got = tail_threshold(EEP, params)
        assert got == _final_tail_run(EEP, params, 2000) == 9

    def test_tail_threshold_past_the_first_block(self):
        # the crossing lies past the scan's first block of 4096 values
        params = MixtureParams((0.999, 0.001), (0.002,), 1.2)
        got = tail_threshold(EP, params)
        assert got == 6473
        assert _final_tail_run(EP, params, 20000) == got

    def test_tail_threshold_skips_a_tail_owned_head(self):
        # the table2-desk EP truth: the tail owns x = 1, the body 2-20,
        # and the tail every value from 21 on
        params = MixtureParams((0.5, 0.5), (0.2,), 1.6)
        r = responsibilities(np.arange(1, 23), EP, params)[:, -1]
        assert r[0] >= 0.5 and (r[1:20] < 0.5).all() and (r[20:] >= 0.5).all()
        assert tail_threshold(EP, params) == 21

    def test_tail_threshold_equals_brute_force_on_random_models(self):
        rng = substream(2024)
        heads = 0  # models whose tail owns some value before the body's last
        for trial in range(40):
            n_exp = 1 + trial % 2
            spec = ModelSpec(n_exp, x_min=int(rng.integers(1, 4)))
            params = MixtureParams(
                tuple(rng.dirichlet(np.ones(n_exp + 1))),
                tuple(np.exp(rng.uniform(np.log(0.05), np.log(3.0), n_exp))),
                float(rng.uniform(1.1, 3.5)),
            )
            got = tail_threshold(spec, params)
            assert got == _final_tail_run(spec, params, 20000), params
            heads += bool((responsibilities(np.arange(spec.x_min, got), spec,
                                            params)[:, -1] >= 0.5).any())
        assert heads >= 10

    def test_tail_threshold_refuses_a_far_takeover_before_scanning(self, monkeypatch):
        def scanned(*args):
            raise AssertionError("responsibilities called")

        monkeypatch.setattr(mixture_module, "responsibilities", scanned)
        # s = alpha / min rate = 2^26 exactly, and far past it
        for rate in (2.0 / 2**26, 1e-12):
            params = MixtureParams((0.5, 0.5), (rate,), 2.0)
            with pytest.raises(DomainError, match=r"s = alpha / min rate = .*2\^26"):
                tail_threshold(EP, params)

    def test_pure_tail_model_starts_at_x_min(self):
        assert tail_threshold(P, MixtureParams((1.0,), (), 1.6)) == 1
        spec = ModelSpec(n_exp=0, x_min=4)
        assert tail_threshold(spec, MixtureParams((1.0,), (), 1.6)) == 4


def _final_tail_run(spec, params, stop):
    """Brute force over x_min..stop: one past the last value the body
    owns, or x_min. stop must be tail-owned and lie past s = alpha / min
    rate, from where the tail's log-odds only rise."""
    xs = np.arange(spec.x_min, stop + 1)
    tail = responsibilities(xs, spec, params)[:, -1] >= 0.5
    assert tail[-1] and stop >= params.alpha / min(params.lambdas)
    body = np.flatnonzero(~tail)
    return int(xs[body[-1]]) + 1 if body.size else spec.x_min


class TestBinnedSeries:
    def test_validation(self):
        with pytest.raises(DataError, match="index 1"):
            BinnedSeries(np.array([3, -1, 2]), bin_seconds=4)
        with pytest.raises(DataError):
            BinnedSeries(np.array([1.5, 2.0]), bin_seconds=4)
        with pytest.raises(DataError):
            BinnedSeries(np.array([[1, 2]]), bin_seconds=4)
        with pytest.raises(DataError):
            BinnedSeries(np.array([1, 2]), bin_seconds=0)
        for bin_seconds in (np.inf, np.nan):
            with pytest.raises(DataError, match="positive and finite"):
                BinnedSeries(np.array([1, 2]), bin_seconds=bin_seconds)
        # float counts the int64 cast cannot hold, once reported as
        # "negative count -9223372036854775808" after a cast warning
        for v, shown in ((np.inf, "inf"), (-np.inf, "-inf"), (1e300, "1e+300"),
                         (2.0**63, "9.223372036854776e+18")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match=f"^count {re.escape(shown)} at "
                                   "index 1 is outside the 64-bit integer range$"):
                    BinnedSeries(np.array([1.0, v]), bin_seconds=1.0)

    def test_counts_are_read_only(self):
        s = BinnedSeries(np.array([1, 2, 3]), bin_seconds=4)
        with pytest.raises(ValueError):
            s.counts[0] = 9

    def test_fingerprint_tracks_data(self):
        a = BinnedSeries(np.array([1, 2, 3]), bin_seconds=4)
        b = BinnedSeries(np.array([1, 2, 3]), bin_seconds=4)
        c = BinnedSeries(np.array([1, 2, 4]), bin_seconds=4)
        d = BinnedSeries(np.array([1, 2, 3]), bin_seconds=8)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != d.fingerprint()

    def test_zero_counts_allowed_in_container(self):
        # zeros are storable (binning may keep them); only fitting rejects
        s = BinnedSeries(np.array([0, 2, 3]), bin_seconds=4)
        assert s.n == 3


class TestSampling:
    def test_deterministic(self):
        params = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        a = sample_mixture(EEP, params, 2000, seed=5)
        b = sample_mixture(EEP, params, 2000, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 1

    def test_component_mix_respected(self):
        import scipy.special

        params = MixtureParams((0.7, 0.3), (5.0,), 3.5)
        xs = sample_mixture(EP, params, 100_000, seed=6)
        expected = 0.7 * (1 - np.exp(-5.0)) + 0.3 / scipy.special.zeta(3.5, 1)
        assert (xs == 1).mean() == pytest.approx(expected, abs=0.01)

    def test_literal_mode_refused(self):
        # the unnormalized form has no sampler; no spec can name it
        with pytest.raises(DomainError, match="must be 'discrete'"):
            ModelSpec(n_exp=1, exp_mode="paper-literal")

    def test_negative_size_is_domain_error(self):
        params = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        with pytest.raises(DomainError, match="non-negative, got -5"):
            sample_mixture(EP, params, -5, seed=0)
        assert sample_mixture(EP, params, 0, seed=0).shape == (0,)

    def test_negative_seed_is_domain_error(self):
        params = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        with pytest.raises(DomainError, match="seed must be a non-negative"):
            sample_mixture(EP, params, 10, seed=-1)
        with pytest.raises(DomainError, match="seed must be a non-negative"):
            child_seed(-3, 0)

    @pytest.mark.parametrize("seed", [1.5, "7"], ids=["float", "str"])
    def test_seed_that_is_not_an_integer_is_domain_error(self, seed):
        # numpy's SeedSequence would raise its own TypeError for these
        params = MixtureParams((0.5, 0.5), (0.3,), 1.7)
        message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
        for draw in (lambda: substream(seed), lambda: child_seed(seed, 0),
                     lambda: sample_mixture(EP, params, 10, seed=seed)):
            with pytest.raises(DomainError, match=message):
                draw()
