"""Acceptance gates.

One test per criterion; `pytest -v tests/test_acceptance.py` prints one
pass/fail line for each. Tolerances are pinned in the assertions.
Reference numbers come from independent oracles (see frozen_values.py
and the inline dict/scipy oracles here), never from the code under test.
"""

import math

import numpy as np
import pytest
import scipy.special

from tailmix.cli import main
from tailmix.experiments import run_preset
from tailmix.fit import FitConfig, fit_model, random_init
from tailmix import fit as fit_module
from tailmix.ingest import STANDARD_WINDOWS, bin_flows
from tailmix.mixture import (
    MixtureParams,
    ModelSpec,
    aggregate_counts,
    mixture_pmf,
    sample_mixture,
)
from tailmix.seeding import substream


@pytest.fixture(scope="module")
def fig2():
    return run_preset("fig2-desk")


@pytest.fixture(scope="module")
def table2():
    return run_preset("table2-desk")


def test_criterion_01_alpha_recovery_accuracy(fig2):
    """MLE recovery: median relative error <= 5% and estimate IQR <= 0.15
    at every grid point of the desk recovery study."""
    for point in fig2["points"]:
        assert point["mle_median_rel_err"] <= 0.05, point
        assert point["mle_iqr"] <= 0.15, point


def test_criterion_02_hill_baseline_spread(fig2):
    """The Hill baseline spread strictly exceeds the MLE spread at every
    grid point."""
    for point in fig2["points"]:
        assert point["hill_iqr"] > point["mle_iqr"], point


def test_criterion_03_selection_strength_gates(table2):
    """Selection strength under an EP truth grows with sample size, and
    the two-exponential truth is detectable: median log10 BF(EP, P) >=
    1.3 at n=1000 and >= 3 at n=5000, EP chosen in >= 95% of replicates
    at n=1000, median log10 BF(EEP, EP) >= 1.3 at n=9000 under the EEP
    truth."""
    rows = {r["row_id"]: r for r in table2["rows"]}
    assert rows["ep-truth-n1000"]["median_log10_bf"] >= 1.3
    assert rows["ep-truth-n1000"]["choice_rate"] >= 0.95
    assert rows["ep-truth-n5000"]["median_log10_bf"] >= 3.0
    assert rows["eep-truth-n9000"]["median_log10_bf"] >= 1.3


def test_criterion_04_simpler_truth_protected(table2):
    """Under a pure power-law truth at n=5000 the walk keeps the simple
    model in >= 95% of replicates."""
    rows = {r["row_id"]: r for r in table2["rows"]}
    assert rows["p-truth-n5000"]["choice_rate"] >= 0.95


NORMALIZATION_CASES = (
    (ModelSpec(0), MixtureParams((1.0,), (), 1.6)),
    (ModelSpec(1), MixtureParams((0.5, 0.5), (0.2,), 1.6)),
    (ModelSpec(2), MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)),
)


def test_criterion_05_mixture_normalization():
    """Each model's pmf sums to 1 within 1e-8 over its support. The sum
    is direct up to 10^6 plus analytic remainders: scipy's Hurwitz zeta
    for the power tail, a closed-form geometric tail for each
    exponential."""
    from tailmix.dists import hurwitz_zeta

    cutoff = 1_000_000
    xs = np.arange(1, cutoff)
    for spec, params in NORMALIZATION_CASES:
        head = mixture_pmf(xs, spec, params).sum()
        tail = params.weights[-1] * scipy.special.zeta(params.alpha, cutoff) \
            / hurwitz_zeta(params.alpha, spec.x_min)
        for w, lam in zip(params.weights, params.lambdas):
            tail += w * math.exp(-lam * (cutoff - spec.x_min))
        assert abs(head + tail - 1.0) <= 1e-8, spec.label


def test_criterion_06_analytic_gradients_match_fd():
    """Analytic log-likelihood gradients match central finite differences
    with relative error <= 1e-5 at 20 random interior points per model."""
    sample = sample_mixture(
        ModelSpec(1), MixtureParams((0.5, 0.5), (0.4,), 1.8), 600, seed=2025
    )
    values, mult = aggregate_counts(sample, 1)
    for spec in (ModelSpec(0), ModelSpec(1), ModelSpec(2)):
        fun = fit_module._objective([(values, mult)], [0], spec)
        row = np.zeros(1, dtype=np.int64)
        for point in range(20):
            theta = random_init(spec, substream(909, spec.n_exp, point))
            grad = fun(theta[None], row)[1][0]
            for i in range(theta.size):
                h = 1e-6 * max(1.0, abs(theta[i]))
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd = (fun(tp[None], row)[0][0] - fun(tm[None], row)[0][0]) / (2 * h)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
                assert rel <= 1e-5, (spec.label, point, i)


MONOTONE_TRUTHS = (
    ("P", MixtureParams((1.0,), (), 1.4)),
    ("P", MixtureParams((1.0,), (), 2.4)),
    ("EP", MixtureParams((0.5, 0.5), (0.2,), 1.6)),
    ("EP", MixtureParams((0.8, 0.2), (1.0,), 2.0)),
    ("EP", MixtureParams((0.2, 0.8), (0.1,), 1.3)),
    ("EP", MixtureParams((0.6, 0.4), (2.5,), 3.0)),
    ("EEP", MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)),
    ("EEP", MixtureParams((0.25, 0.25, 0.5), (2.0, 0.5), 2.2)),
    ("EEP", MixtureParams((0.45, 0.35, 0.2), (0.9, 0.12), 1.8)),
    ("EP", MixtureParams((0.9, 0.1), (0.3,), 1.9)),
)


def test_criterion_07_nested_loglik_monotonicity():
    """Optimized log-likelihood never decreases up the nested family on
    10 synthetic series (slack 1e-6 for float noise)."""
    for idx, (label, truth) in enumerate(MONOTONE_TRUTHS):
        truth_spec = ModelSpec({"P": 0, "EP": 1, "EEP": 2}[label])
        sample = sample_mixture(truth_spec, truth, 2000, seed=3000 + idx)
        cfg = FitConfig(seed=4000 + idx)
        ll = {
            n_exp: fit_model(sample, ModelSpec(n_exp), cfg).loglik
            for n_exp in (0, 1, 2)
        }
        assert ll[1] >= ll[0] - 1e-6, (idx, label, ll)
        assert ll[2] >= ll[1] - 1e-6, (idx, label, ll)


def test_criterion_08_cli_reports_reproducible(tmp_path):
    """Rerunning a CLI command with the same inputs and seed writes
    byte-identical reports and data files."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "EP", "--weights", "0.5,0.5",
                 "--lambdas", "0.2", "--alpha", "1.6", "--n", "2000",
                 "--seed", "17", "--out-dir", str(sim)]) == 0
    series = sim / "sim-ep-n2000.series"

    fit_a, fit_b = tmp_path / "fa", tmp_path / "fb"
    fit_args = ["fit-select", "--input", str(series), "--restarts", "6",
                "--seed", "23"]
    assert main(fit_args + ["--out-dir", str(fit_a)]) == 0
    assert main(fit_args + ["--out-dir", str(fit_b)]) == 0
    name = "sim-ep-n2000.fit-report.json"
    assert (fit_a / name).read_bytes() == (fit_b / name).read_bytes()

    flows = tmp_path / "flows.csv"
    rng = substream(55)
    body = "\n".join(f"r{i},{t:.4f}" for i, t in
                     enumerate(np.sort(rng.uniform(0, 3000, size=800))))
    flows.write_text("flow_id,start_time\n" + body + "\n")
    bin_a, bin_b = tmp_path / "ba", tmp_path / "bb"
    bin_args = ["bin", "--input", str(flows), "--windows", "4,64"]
    assert main(bin_args + ["--out-dir", str(bin_a)]) == 0
    assert main(bin_args + ["--out-dir", str(bin_b)]) == 0
    for fname in ("flows.bin-report.json", "flows.w4.series", "flows.w64.series"):
        assert (bin_a / fname).read_bytes() == (bin_b / fname).read_bytes()


def test_criterion_09_binning_matches_dict_oracle():
    """Window counting agrees exactly with an independent dict-based
    oracle on 1000 random traces covering all standard window sizes,
    uptime filtering, zero handling, and negative time offsets."""

    def oracle(times, w, uptime, drop_zeros):
        ks = [math.floor(t / w) for t in times]
        acc = {}
        for k in ks:
            acc[k] = acc.get(k, 0) + 1
        out, d_up, d_z = [], 0, 0
        for k in range(min(ks), max(ks) + 1):
            c = acc.get(k, 0)
            if uptime is not None:
                lo, hi = k * w, (k + 1) * w
                if not any(b <= lo and hi <= e for b, e in uptime):
                    d_up += 1
                    continue
            if drop_zeros and c == 0:
                d_z += 1
                continue
            out.append(c)
        return out, d_up, d_z

    rng = np.random.default_rng(190_000)
    for trace in range(1000):
        n = int(rng.integers(2, 250))
        scale = float(rng.uniform(20, 40_000))
        offset = float(rng.uniform(-scale, scale))
        times = offset + rng.uniform(0, scale, size=n)
        w = float(rng.choice(STANDARD_WINDOWS))
        drop_zeros = bool(rng.integers(0, 2))
        uptime = None
        if rng.integers(0, 2):
            spans = []
            cursor = float(times.min()) - scale / 10
            for _ in range(int(rng.integers(1, 4))):
                begin = cursor + float(rng.uniform(0, scale / 3))
                end = begin + float(rng.uniform(scale / 10, scale / 2))
                spans.append((begin, end))
                cursor = end + 1.0
            uptime = spans
        series = bin_flows(times, w, uptime=uptime, drop_zeros=drop_zeros)
        ref_counts, ref_up, ref_z = oracle(times, w, uptime, drop_zeros)
        np.testing.assert_array_equal(series.counts, ref_counts, err_msg=str(trace))
        assert series.meta["n_bins_dropped_uptime"] == ref_up, trace
        assert series.meta["n_zero_bins_dropped"] == ref_z, trace
