"""Hill baseline, presets, and the experiment runners."""

import hashlib
import math
import warnings

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

    def test_non_positive_reference_statistic_is_a_data_error(self):
        xs = np.r_[np.zeros(95), np.arange(1.0, 6.0)]  # k = 10, x_(11) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^order statistic 11 from the top "
                                                "is 0, not positive$"):
                hill_estimate(xs)
        with pytest.raises(DataError, match="is -1, not positive"):
            hill_estimate(np.r_[-np.ones(95), np.arange(1.0, 6.0)])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_is_a_data_error(self, bad):
        # an infinite top value once gave 1.0, a nan one nan
        xs = np.r_[np.arange(1.0, 100.0), bad, 7.0]
        with pytest.raises(DataError, match=f"^non-finite value {bad} at index 99$"):
            hill_estimate(xs)

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


class TestSamplingTableBuilds:
    """Replicates at one power tail draw from one kept set of sampling
    checkpoints."""

    def test_selection_rows_at_one_alpha_build_one_table(self, table_builds):
        from tailmix.experiments import _EP_TRUTH, _P_TRUTH, SelectionRow

        plan = SelectionPlan(
            "mini-sel",
            rows=(
                SelectionRow("ep", "EP", _EP_TRUTH, 600, "ep_p", "EP"),
                SelectionRow("p", "P", _P_TRUTH, 600, "choice", "P"),
            ),
            n_replicates=3,
            restarts=2,
        )
        run_selection_strength(plan, seed=5)
        assert table_builds == [(1.6, 1)]

    def test_recovery_grid_builds_one_table_per_alpha(self, table_builds):
        plan = RecoveryPlan(
            "mini", alphas=(1.4, 1.8), n_samples=600, n_replicates=3, restarts=2
        )
        run_alpha_recovery(plan, seed=5)
        assert table_builds == [(1.4, 1), (1.8, 1)]


# SHA-256 of the preset samples, the int64 draws of each grid point or
# row concatenated over its replicates, as the sampler drew them when
# the Pareto table was held whole. A sampler change that moves one bit
# of any draw changes these. The draws beyond the table edge scale with
# 1 / (1 - S[L-1]), so zeta's last bits reach them: the fixed-length
# Euler-Maclaurin zeta moved 122 draws at alpha 1.2 and 2 at 1.4, all
# above 6e11 and by at most 1.7e-12 relative, and those two entries were
# frozen again. The same draws clipped at 2^30 kept their digests.
# Draws past the table edge take libm's pow, which gives one result on
# every CPU, where numpy's AVX-512 power loop differed from its AVX2 loop
# in the last bit: one alpha 1.2 draw, 2.2e18, moved by that bit, and
# that entry was frozen again at the value AVX2 hosts drew before.
_FIG2_DESK_DIGESTS = {
    1.2: "515a6697673a225fc90dc2db2080a2c2cfacc359ef8291ecbeddb0bc34bdc109",
    1.4: "f1211bbd9f2a67ea3810d188feb668a91c8f837c7174e4dbe27c1ebb2b3ae1b5",
    1.6: "7311e92abd1be246f26e46a7bfc51d7de13b465970584235d3b0b1b41bc6cfc1",
    1.8: "23ff009f0bcff9a8f0e20fc7169429c5e50d44239bf6780829b85ac918b93e1c",
    2.0: "3b44909d708ec4488c6cd9f032bf92ce09b611c005533cf778a808956fbd50d3",
}
_FIG2_DESK_CLIPPED_DIGESTS = {
    1.2: "cf374c871f7ea179e0825d40945a331086953e0e46e22cd040fceb9d3b0cfc5f",
    1.4: "33233d604fb11903063af98a161e7fa49788104d2991bb7e280d0be20c44ceca",
    1.6: "7311e92abd1be246f26e46a7bfc51d7de13b465970584235d3b0b1b41bc6cfc1",
    1.8: "23ff009f0bcff9a8f0e20fc7169429c5e50d44239bf6780829b85ac918b93e1c",
    2.0: "3b44909d708ec4488c6cd9f032bf92ce09b611c005533cf778a808956fbd50d3",
}
_TABLE2_DESK_DIGESTS = {
    "ep-truth-n1000": "d76094cc23873b8a3ff36d11550e4045e99c2c4561a8eabea895f2050a9043fd",
    "ep-truth-n5000": "1a5d3653a48514b9a71838aa13773207980c4e86d87cdad3d758aed18ff3055f",
    "ep-truth-eep-n1000": "5de35bdfcd471e9dc997e94db2bf91878ae3e7eb247ec13f5df2e248ca583b8a",
    "ep-truth-eep-n10000": "1bed0c9f801ebcbc8da3c39efed4b4d6ce3a5c27337f10d39b0a136b88af0785",
    "eep-truth-n9000": "1125e129b512ddbfe775eb234d53687d471db3e72bd02e6946d678a9af8f98ce",
    "p-truth-n5000": "4767c1bd823fca01bc0da419f18552692b8329a7132a438c30d34a0e74a3ea7d",
}


class TestFrozenSamplerDigests:
    """The presets' samples, drawn as their runners draw them, are frozen."""

    @staticmethod
    def fig2_desk_digests(clip=None):
        from tailmix.experiments import _DATA_STREAM
        from tailmix.mixture import MixtureParams, ModelSpec, sample_mixture
        from tailmix.seeding import DEFAULT_SEED

        plan = PRESETS["fig2-desk"]
        spec = ModelSpec(1, x_min=plan.x_min)
        # grid points interleaved by replicate, so that each revisit
        # draws from kept checkpoints
        digests = {alpha: hashlib.sha256() for alpha in plan.alphas}
        for rep in range(plan.n_replicates):
            for gi, alpha in enumerate(plan.alphas):
                rng = substream(DEFAULT_SEED, gi, rep, _DATA_STREAM)
                lam = float(rng.uniform(*plan.lambda_range))
                truth = MixtureParams(
                    (plan.mix_weight, 1.0 - plan.mix_weight), (lam,), alpha)
                xs = sample_mixture(spec, truth, plan.n_samples, rng)
                if clip is not None:
                    xs = np.minimum(xs, clip)
                digests[alpha].update(xs.astype("<i8").tobytes())
        return {alpha: h.hexdigest() for alpha, h in digests.items()}

    def test_fig2_desk_samples(self):
        assert self.fig2_desk_digests() == _FIG2_DESK_DIGESTS

    def test_fig2_desk_samples_clipped_at_2_30(self):
        # every draw that zeta's rounding can move lies far beyond 2^30
        assert self.fig2_desk_digests(clip=1 << 30) == _FIG2_DESK_CLIPPED_DIGESTS

    def test_table2_desk_samples(self):
        from tailmix.experiments import _DATA_STREAM, _spec_for
        from tailmix.mixture import sample_mixture
        from tailmix.seeding import DEFAULT_SEED

        plan = PRESETS["table2-desk"]
        got = {}
        for ri, row in enumerate(plan.rows):
            h = hashlib.sha256()
            for rep in range(plan.n_replicates):
                xs = sample_mixture(
                    _spec_for(row.truth_label, plan.x_min), row.truth_params,
                    row.n_samples, substream(DEFAULT_SEED, ri, rep, _DATA_STREAM))
                h.update(xs.astype("<i8").tobytes())
            got[row.row_id] = h.hexdigest()
        assert got == _TABLE2_DESK_DIGESTS
