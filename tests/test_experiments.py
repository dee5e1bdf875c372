"""Hill baseline, presets, and the experiment runners."""

import math

import numpy as np
import pytest

from tailmix.errors import DataError, EstimationError
from tailmix.experiments import (
    PRESETS,
    RecoveryPlan,
    SelectionPlan,
    get_preset,
    hill_estimate,
    run_alpha_recovery,
    run_selection_strength,
)
from tailmix.seeding import substream


class TestHillEstimate:
    def test_known_small_case(self):
        xs = np.arange(1.0, 101.0)  # 100 values, k = 10, reference stat 90
        k = 10
        denom = sum(math.log(v / 90.0) for v in range(91, 101))
        expected = 1.0 + k / denom
        assert hill_estimate(xs) == pytest.approx(expected, rel=1e-12)

    def test_consistent_on_continuous_power_law(self):
        rng = substream(42)
        alpha = 2.0
        xs = (1.0 - rng.random(100_000)) ** (-1.0 / (alpha - 1.0))
        assert hill_estimate(xs) == pytest.approx(alpha, abs=0.05)

    def test_preconditions(self):
        with pytest.raises(DataError):
            hill_estimate(np.arange(1.0, 30.0))  # too few observations
        with pytest.raises(DataError):
            hill_estimate(np.arange(1.0, 61.0), tail_fraction=0.05)  # k < 10
        with pytest.raises(DataError):
            hill_estimate(np.arange(1.0, 101.0), tail_fraction=1.5)
        with pytest.raises(DataError):
            hill_estimate(np.arange(1.0, 101.0), tail_fraction=0.999999)

    def test_degenerate_tail_raises(self):
        xs = np.ones(100)
        with pytest.raises(EstimationError):
            hill_estimate(xs)


class TestPresets:
    def test_registry(self):
        assert set(PRESETS) == {"fig2-desk", "fig2-paper", "table2-desk", "table2-paper"}
        with pytest.raises(DataError):
            get_preset("nope")

    def test_recovery_presets(self):
        desk = get_preset("fig2-desk")
        paper = get_preset("fig2-paper")
        assert isinstance(desk, RecoveryPlan)
        assert desk.alphas == (1.2, 1.4, 1.6, 1.8, 2.0)
        assert desk.n_replicates == 20
        assert desk.n_samples == 10000
        assert desk.mix_weight == 0.5
        assert desk.lambda_range == (0.1, 0.3)
        assert paper.n_replicates == 100
        assert len(paper.alphas) == 8

    def test_selection_presets(self):
        desk = get_preset("table2-desk")
        paper = get_preset("table2-paper")
        assert isinstance(desk, SelectionPlan)
        assert desk.n_replicates == 20
        assert paper.n_replicates == 100
        assert desk.threshold == 10.0
        ids = [r.row_id for r in desk.rows]
        assert len(ids) == len(set(ids))
        by_id = {r.row_id: r for r in desk.rows}
        assert by_id["ep-truth-n1000"].gate_median_log10 == 1.3
        assert by_id["ep-truth-n1000"].gate_choice_rate == 0.95
        assert by_id["ep-truth-n5000"].gate_median_log10 == 3.0
        assert by_id["eep-truth-n9000"].gate_median_log10 == 1.3
        assert by_id["p-truth-n5000"].gate_choice_rate == 0.95


MINI_RECOVERY = RecoveryPlan(
    "mini", alphas=(1.6,), n_samples=1200, n_replicates=2, restarts=4
)


class TestRunners:
    def test_recovery_runner_shape_and_determinism(self):
        a = run_alpha_recovery(MINI_RECOVERY, seed=9)
        b = run_alpha_recovery(MINI_RECOVERY, seed=9)
        assert a == b
        assert a["study"] == "alpha-recovery"
        assert len(a["points"]) == 1
        assert len(a["records"]) == 4  # 2 replicates x 2 estimators
        point = a["points"][0]
        assert point["alpha"] == 1.6
        assert point["mle_median_rel_err"] < 0.5
        for key in ("pass_median_rel_err", "pass_mle_iqr", "pass_hill_spread", "pass"):
            assert key in a["gates"]

    def test_recovery_seed_changes_draws(self):
        a = run_alpha_recovery(MINI_RECOVERY, seed=9)
        c = run_alpha_recovery(MINI_RECOVERY, seed=10)
        assert a["records"] != c["records"]

    def test_selection_runner_mini(self):
        from tailmix.experiments import SelectionRow, _EP_TRUTH, _P_TRUTH

        plan = SelectionPlan(
            "mini-sel",
            rows=(
                SelectionRow("ep", "EP", _EP_TRUTH, 900, "ep_p", "EP",
                             gate_median_log10=1.3),
                SelectionRow("p", "P", _P_TRUTH, 900, "choice", "P",
                             gate_choice_rate=0.5),
                SelectionRow("occam", "EP", _EP_TRUTH, 900, "eep_ep", "EP"),
            ),
            n_replicates=2,
            restarts=4,
        )
        rep = run_selection_strength(plan, seed=4)
        assert rep == run_selection_strength(plan, seed=4)
        rows = {r["row_id"]: r for r in rep["rows"]}
        assert rows["ep"]["pass"] is not None
        assert rows["occam"]["pass"] is None  # informational row
        assert rows["occam"]["median_log10_bf"] is not None
        assert rows["p"]["choice_rate"] == 1.0
        for r in rep["rows"]:
            assert len(r["replicates"]) == 2
        assert isinstance(rep["gates"]["pass"], bool)


class TestReplicatesFitTogether:
    """The replicates of a row or grid point are fitted in one lockstep;
    every figure equals fitting each replicate alone."""

    def test_selection_rows_equal_one_walk_per_replicate(self):
        from tailmix.experiments import (
            _DATA_STREAM, _EP_TRUTH, _FIT_STREAM, _P_TRUTH, SelectionRow,
        )
        from tailmix.fit import FitConfig, fit_model
        from tailmix.mixture import ModelSpec, sample_mixture
        from tailmix.seeding import child_seed
        from tailmix.select import log_bayes_factor, select_nested

        plan = SelectionPlan(
            "mini-sel",
            rows=(
                SelectionRow("ep", "EP", _EP_TRUTH, 900, "ep_p", "EP"),
                SelectionRow("p-eep", "P", _P_TRUTH, 900, "eep_ep", "P"),
            ),
            n_replicates=2,
            restarts=3,
        )
        seed = 6
        rep = run_selection_strength(plan, seed=seed)
        for ri, (row, out) in enumerate(zip(plan.rows, rep["rows"])):
            truth_spec = ModelSpec(("P", "EP", "EEP").index(row.truth_label))
            for r, got in enumerate(out["replicates"]):
                sample = sample_mixture(truth_spec, row.truth_params, row.n_samples,
                                        substream(seed, ri, r, _DATA_STREAM))
                cfg = FitConfig(restarts=plan.restarts,
                                seed=child_seed(seed, ri, r, _FIT_STREAM))
                sel = select_nested(sample, cfg)
                bf = sel.log_bf_eep_ep
                if row.metric == "eep_ep" and bf is None:
                    bf = log_bayes_factor(fit_model(sample, ModelSpec(2), cfg),
                                          sel.models["EP"])
                assert got == {"rep": r, "chosen": sel.chosen,
                               "log_bf_ep_p": sel.log_bf_ep_p,
                               "log_bf_eep_ep": bf}
        # the forced EEP fits ran where the walk stopped at P
        assert all(r["chosen"] == "P" and r["log_bf_eep_ep"] is not None
                   for r in rep["rows"][1]["replicates"])

    def test_recovery_points_equal_one_fit_per_replicate(self):
        from tailmix.experiments import _DATA_STREAM, _FIT_STREAM
        from tailmix.fit import FitConfig, fit_model
        from tailmix.mixture import MixtureParams, ModelSpec, sample_mixture
        from tailmix.seeding import child_seed

        plan = MINI_RECOVERY
        seed = 9
        rep = run_alpha_recovery(plan, seed=seed)
        spec = ModelSpec(1)
        want = []
        for gi, alpha in enumerate(plan.alphas):
            for r in range(plan.n_replicates):
                rng = substream(seed, gi, r, _DATA_STREAM)
                lam = float(rng.uniform(*plan.lambda_range))
                truth = MixtureParams((plan.mix_weight, 1 - plan.mix_weight),
                                      (lam,), alpha)
                sample = sample_mixture(spec, truth, plan.n_samples, rng)
                cfg = FitConfig(restarts=plan.restarts,
                                seed=child_seed(seed, gi, r, _FIT_STREAM))
                fm = fit_model(sample, spec, cfg)
                want.append([alpha, r, "mle", fm.params.alpha])
                want.append([alpha, r, "hill", hill_estimate(sample, plan.tail_fraction)])
        assert rep["records"] == want
