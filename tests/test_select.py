"""BIC, Bayes factors, evidence bands, and the nested selection walk."""

import math

import numpy as np
import pytest

import frozen_values as fv
from tailmix import select as select_module
from tailmix.errors import ContractError, DataError, DomainError, FitError
from tailmix.fit import FitConfig, FittedModel, fit_model
from tailmix.reporting import canonical_json, serialize_selection
from tailmix.mixture import MixtureParams, ModelSpec, sample_mixture
from tailmix.select import (
    SelectionResult,
    bic,
    log_bayes_factor,
    select_many,
    select_nested,
    strength_label,
)

CFG = FitConfig(restarts=5, seed=7)


class TestBic:
    def test_frozen_example(self):
        assert bic(-5000.0, 9771, 3) == pytest.approx(fv.BIC_EXAMPLE, abs=1e-9)

    def test_zero_dof_is_raw_loglik(self):
        assert bic(-12.5, 100, 0) == -12.5

    def test_preconditions(self):
        with pytest.raises(DomainError):
            bic(-10.0, 0, 1)
        with pytest.raises(DomainError):
            bic(-10.0, 10, -1)


class TestStrengthLabels:
    @pytest.mark.parametrize(
        "value,base,label",
        [
            (0.0, "log10", "negligible"),
            (1.2999, "log10", "negligible"),
            (1.3, "log10", "substantial"),
            (1.9999, "log10", "substantial"),
            (2.0, "log10", "strong"),
            (2.9999, "log10", "strong"),
            (3.0, "log10", "decisive"),
            (250.0, "log10", "decisive"),
            (2.9999, "natural", "negligible"),
            (3.0, "natural", "substantial"),
            (4.4999, "natural", "substantial"),
            (4.5, "natural", "strong"),
            (6.9999, "natural", "strong"),
            (7.0, "natural", "decisive"),
        ],
    )
    def test_band_edges_half_open(self, value, base, label):
        assert strength_label(value, base).label == label

    def test_sign_reported_separately(self):
        assert strength_label(8.0, "natural").sign == 1
        assert strength_label(-8.0, "natural").sign == -1
        assert strength_label(-8.0, "natural").label == "decisive"
        assert strength_label(0.0, "natural").sign == 0

    def test_unknown_base(self):
        with pytest.raises(DomainError):
            strength_label(1.0, base="log2")


class TestLogBayesFactor:
    def test_is_bic_difference_on_shared_data(self):
        sample = sample_mixture(
            ModelSpec(1), MixtureParams((0.5, 0.5), (0.2,), 1.6), 1200, seed=3
        )
        fm_p = fit_model(sample, ModelSpec(0), CFG)
        fm_ep = fit_model(sample, ModelSpec(1), CFG)
        assert log_bayes_factor(fm_ep, fm_p) == pytest.approx(
            fm_ep.bic - fm_p.bic, rel=1e-15
        )
        assert log_bayes_factor(fm_p, fm_ep) == -log_bayes_factor(fm_ep, fm_p)

    def test_different_data_rejected(self):
        a = sample_mixture(ModelSpec(0), MixtureParams((1.0,), (), 2.0), 500, seed=1)
        b = sample_mixture(ModelSpec(0), MixtureParams((1.0,), (), 2.0), 500, seed=2)
        fm_a = fit_model(a, ModelSpec(0), CFG)
        fm_b = fit_model(b, ModelSpec(0), CFG)
        with pytest.raises(ContractError):
            log_bayes_factor(fm_a, fm_b)


class TestNestedSelection:
    def test_pure_tail_data_keeps_p(self):
        sample = sample_mixture(ModelSpec(0), MixtureParams((1.0,), (), 1.6), 3000, seed=11)
        sel = select_nested(sample, CFG)
        assert sel.chosen == "P"
        assert sel.log_bf_eep_ep is None
        assert "EEP" not in sel.models
        assert sel.chosen_model is sel.models["P"]

    def test_ep_data_selects_ep(self):
        sample = sample_mixture(
            ModelSpec(1), MixtureParams((0.5, 0.5), (0.2,), 1.6), 3000, seed=12
        )
        sel = select_nested(sample, CFG)
        assert sel.chosen == "EP"
        assert sel.log_bf_ep_p > 10
        assert sel.log_bf_eep_ep is not None and sel.log_bf_eep_ep <= 10
        assert "EEP" in sel.models

    def test_tie_keeps_simpler_model(self):
        sample = sample_mixture(
            ModelSpec(1), MixtureParams((0.5, 0.5), (0.2,), 1.6), 2000, seed=13
        )
        probe = select_nested(sample, CFG)
        pinned = select_nested(sample, CFG, threshold=probe.log_bf_ep_p)
        assert pinned.chosen == "P"

    def test_eep_fit_failure_keeps_completed_comparison(self, monkeypatch):
        real_fit = select_module.fit_model

        def flaky(series, spec, config=None):
            if spec.n_exp == 2:
                raise FitError("synthetic failure")
            return real_fit(series, spec, config)

        monkeypatch.setattr(select_module, "fit_model", flaky)
        sample = sample_mixture(
            ModelSpec(1), MixtureParams((0.5, 0.5), (0.2,), 1.6), 2500, seed=14
        )
        sel = select_nested(sample, CFG)
        assert sel.chosen == "EP"
        assert sel.eep_failure is not None
        assert "synthetic failure" in sel.eep_failure
        assert math.isfinite(sel.log_bf_ep_p)

    @pytest.mark.parametrize("counts", [np.ones(500, dtype=int), [7]])
    def test_degenerate_series_raise_data_error(self, counts):
        # one distinct value: no fit can tell a body from a tail, so no
        # model may come back (an all-ones series once chose EP)
        with pytest.raises(DataError, match="at least 2 distinct counts"):
            select_nested(counts, CFG)

    def test_threshold_validated(self):
        with pytest.raises(DomainError):
            select_nested(np.array([1, 2, 3]), CFG, threshold=0.0)

    def test_strengths_on_result(self):
        sample = sample_mixture(
            ModelSpec(1), MixtureParams((0.5, 0.5), (0.2,), 1.6), 3000, seed=12
        )
        sel = select_nested(sample, CFG)
        st = sel.strengths("log10")
        assert st["EP_vs_P"].label == "decisive"
        assert st["EP_vs_P"].sign == 1
        assert "EEP_vs_EP" in st

    def test_result_shape(self):
        sample = sample_mixture(ModelSpec(0), MixtureParams((1.0,), (), 2.2), 1000, seed=15)
        sel = select_nested(sample, CFG)
        assert isinstance(sel, SelectionResult)
        assert sel.threshold == 10.0
        assert set(sel.models) == {"P", "EP"}


class TestSelectMany:
    """The walk across many series equals select_nested on each alone."""

    @staticmethod
    def _series():
        ep = MixtureParams((0.5, 0.5), (0.2,), 1.6)
        eep = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
        return [
            sample_mixture(ModelSpec(0), MixtureParams((1.0,), (), 1.7), 1000, seed=21),
            sample_mixture(ModelSpec(1), ep, 1500, seed=22),
            np.full(60, 3),  # one distinct count: a DataError from P
            sample_mixture(ModelSpec(2), eep, 2500, seed=23),
        ]

    @pytest.mark.parametrize("exp_mode", ["discrete", "paper-literal"])
    def test_results_equal_select_nested_bit_for_bit(self, exp_mode):
        series = self._series()
        configs = [FitConfig(restarts=3, seed=s) for s in (3, 4, 5, 6)]
        got = select_many(series, configs, exp_mode=exp_mode)
        assert isinstance(got[2], DataError)
        assert "EEP" in got[1].models and "EEP" in got[3].models
        for j in (0, 1, 3):
            alone = select_nested(series[j], configs[j], exp_mode=exp_mode)
            assert (canonical_json(serialize_selection(got[j]))
                    == canonical_json(serialize_selection(alone)))
        assert [got[j].chosen for j in (0, 1)] == ["P", "EP"]

    def test_eep_failure_stays_on_its_series(self, monkeypatch):
        real = select_module.fit_models

        def eep_fails_on_first(series_list, spec, configs):
            out = real(series_list, spec, configs)
            if spec.n_exp == 2:
                out[0] = FitError("synthetic failure")
            return out

        monkeypatch.setattr(select_module, "fit_models", eep_fails_on_first)
        ep = MixtureParams((0.5, 0.5), (0.2,), 1.6)
        series = [sample_mixture(ModelSpec(1), ep, 2500, seed=s) for s in (14, 15)]
        got = select_many(series, [CFG, CFG])
        assert got[0].chosen == "EP" and got[0].eep_failure == "synthetic failure"
        assert got[0].log_bf_eep_ep is None and "EEP" not in got[0].models
        assert got[1].eep_failure is None and "EEP" in got[1].models

    def test_eep_always_fits_eep_without_changing_the_choice(self):
        series = self._series()[:2]
        configs = [FitConfig(restarts=3, seed=s) for s in (3, 4)]
        walk = select_many(series, configs)
        always = select_many(series, configs, eep_always=True)
        assert walk[0].chosen == always[0].chosen == "P"
        assert "EEP" not in walk[0].models
        eep = fit_model(series[0], ModelSpec(2), configs[0])
        assert always[0].models["EEP"].params == eep.params
        assert always[0].log_bf_eep_ep == log_bayes_factor(eep, walk[0].models["EP"])
        assert (canonical_json(serialize_selection(always[1]))
                == canonical_json(serialize_selection(walk[1])))

    def test_threshold_validated_once(self):
        with pytest.raises(DomainError):
            select_many([np.array([1, 2, 3])], [CFG], threshold=0.0)


def test_select_nested_fits_each_rung_through_select_fit_model(monkeypatch):
    # perfbench times and traces select_nested's fits by wrapping
    # select.fit_model: each fitted rung must make exactly one call there,
    # and each call must return a FittedModel
    real = select_module.fit_model
    calls = []

    def counting(series, spec, config=None):
        model = real(series, spec, config)
        calls.append((spec.label, type(model)))
        return model

    monkeypatch.setattr(select_module, "fit_model", counting)
    ep = MixtureParams((0.5, 0.5), (0.2,), 1.6)
    sel = select_nested(sample_mixture(ModelSpec(1), ep, 2500, seed=12), CFG)
    assert sel.chosen == "EP"
    assert calls == [("P", FittedModel), ("EP", FittedModel), ("EEP", FittedModel)]
    calls.clear()
    sel = select_nested(
        sample_mixture(ModelSpec(0), MixtureParams((1.0,), (), 1.6), 3000, seed=11), CFG
    )
    assert sel.chosen == "P"
    assert calls == [("P", FittedModel), ("EP", FittedModel)]
