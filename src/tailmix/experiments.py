"""Synthetic validation experiments.

Two studies: exponent recovery on mixture samples (constrained MLE
against a Hill-estimator baseline) and selection strength (how the
nested Bayes-factor walk behaves as sample size grows, for truths on
each rung of the ladder). Presets come in a small desk size and a full
size; every run is fully determined by its seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, EstimationError, FitError, TailmixError
# fit_model stays importable here: perfbench's tracer wraps experiments.fit_model
from .fit import DEFAULT_RESTARTS, FitConfig, fit_model, fit_models  # noqa: F401
from .mixture import LABELS, MixtureParams, ModelSpec, sample_mixture
from .seeding import DEFAULT_SEED, child_seed, substream
from .select import DEFAULT_THRESHOLD, select_many

_LN10 = math.log(10.0)
# substream tags: raw data draws vs optimizer restarts
_DATA_STREAM = 0
_FIT_STREAM = 1


def hill_estimate(sample, tail_fraction: float = 0.1) -> float:
    """Hill tail-exponent estimate from the top tail_fraction order stats.

    Needs at least 50 finite observations, at least 10 tail points and
    a positive reference order statistic. Raises EstimationError when
    the tail order statistics are all equal, which leaves the estimator
    undefined.
    """
    xs = np.asarray(sample, dtype=np.float64)
    if xs.ndim != 1 or xs.size < 50:
        raise DataError(f"need a 1-d sample of at least 50 values, got {xs.shape}")
    finite = np.isfinite(xs)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise DataError(f"non-finite value {xs[idx]} at index {idx}")
    if not (0 < tail_fraction < 1):
        raise DataError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    k = math.ceil(tail_fraction * xs.size)
    if k < 10:
        raise DataError(f"tail_fraction {tail_fraction} leaves only {k} tail points")
    if k >= xs.size:
        raise DataError("tail_fraction leaves no reference order statistic")
    xs = np.sort(xs)[::-1]
    if not xs[k] > 0.0:  # the values above it are positive too
        raise DataError(f"order statistic {k + 1} from the top is {xs[k]:g}, "
                        "not positive")
    denom = float(np.log(xs[:k]).sum() - k * math.log(xs[k]))
    if denom <= 0.0:
        raise EstimationError("tail order statistics are degenerate")
    return 1.0 + k / denom


@dataclass(frozen=True)
class RecoveryPlan:
    """Exponent-recovery study: EP truths across a grid of exponents."""

    name: str
    alphas: tuple
    n_samples: int
    n_replicates: int
    mix_weight: float = 0.5
    lambda_range: tuple = (0.1, 0.3)
    tail_fraction: float = 0.1
    restarts: int = DEFAULT_RESTARTS
    x_min: int = 1


@dataclass(frozen=True)
class SelectionRow:
    """One truth/sample-size cell of the selection-strength study.

    ``metric`` names what the row tracks: "ep_p" or "eep_ep" for a log
    Bayes factor, "choice" for the final selected label alone. Gates are
    optional pass thresholds; rows without gates are informational.
    """

    row_id: str
    truth_label: str
    truth_params: MixtureParams
    n_samples: int
    metric: str
    expected_choice: str
    gate_median_log10: float | None = None
    gate_choice_rate: float | None = None


@dataclass(frozen=True)
class SelectionPlan:
    name: str
    rows: tuple
    n_replicates: int
    threshold: float = DEFAULT_THRESHOLD
    restarts: int = DEFAULT_RESTARTS
    x_min: int = 1


_EP_TRUTH = MixtureParams((0.5, 0.5), (0.2,), 1.6)
_EEP_TRUTH = MixtureParams((0.3, 0.4, 0.3), (1.5, 0.15), 1.6)
_P_TRUTH = MixtureParams((1.0,), (), 1.6)

_TABLE_ROWS = (
    SelectionRow("ep-truth-n1000", "EP", _EP_TRUTH, 1000, "ep_p", "EP",
                 gate_median_log10=1.3, gate_choice_rate=0.95),
    SelectionRow("ep-truth-n5000", "EP", _EP_TRUTH, 5000, "ep_p", "EP",
                 gate_median_log10=3.0),
    SelectionRow("ep-truth-eep-n1000", "EP", _EP_TRUTH, 1000, "eep_ep", "EP"),
    SelectionRow("ep-truth-eep-n10000", "EP", _EP_TRUTH, 10000, "eep_ep", "EP"),
    SelectionRow("eep-truth-n9000", "EEP", _EEP_TRUTH, 9000, "eep_ep", "EEP",
                 gate_median_log10=1.3),
    SelectionRow("p-truth-n5000", "P", _P_TRUTH, 5000, "choice", "P",
                 gate_choice_rate=0.95),
)

PRESETS = {
    "fig2-desk": RecoveryPlan(
        "fig2-desk", alphas=(1.2, 1.4, 1.6, 1.8, 2.0),
        n_samples=10000, n_replicates=20,
    ),
    "fig2-paper": RecoveryPlan(
        "fig2-paper", alphas=(1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9),
        n_samples=10000, n_replicates=100,
    ),
    "table2-desk": SelectionPlan("table2-desk", _TABLE_ROWS, n_replicates=20),
    "table2-paper": SelectionPlan("table2-paper", _TABLE_ROWS, n_replicates=100),
}


def get_preset(name: str):
    if name not in PRESETS:
        raise DataError(f"unknown preset {name!r}, have {sorted(PRESETS)}")
    return PRESETS[name]


def _spec_for(label: str, x_min: int) -> ModelSpec:
    return ModelSpec(LABELS.index(label), x_min=x_min)


def _raise_first_error(results):
    """Return results, or raise the first TailmixError among them."""
    for r in results:
        if isinstance(r, TailmixError):
            raise r
    return results


def _iqr(values) -> float:
    lo, hi = np.percentile(np.asarray(values, dtype=np.float64), [25.0, 75.0])
    return float(hi - lo)


def run_alpha_recovery(plan: RecoveryPlan, seed: int = DEFAULT_SEED) -> dict:
    """Run the recovery study; the report is a plain JSON-ready dict.

    Per replicate: draw an EP sample with the planned exponent and a
    uniformly drawn decay rate, fit the EP model, and compute the Hill
    baseline on the same sample. The replicates of a grid point are
    fitted together (fit_models). Gates check that MLE recovery is tight
    (median relative error at most 5%, estimate IQR at most 0.15) and
    that the Hill spread exceeds the MLE spread at every grid point.
    """
    spec = ModelSpec(1, x_min=plan.x_min)
    points = []
    records = []
    for gi, alpha in enumerate(plan.alphas):
        samples, fcfgs = [], []
        for rep in range(plan.n_replicates):
            rng = substream(seed, gi, rep, _DATA_STREAM)
            lam = float(rng.uniform(*plan.lambda_range))
            truth = MixtureParams(
                (plan.mix_weight, 1.0 - plan.mix_weight), (lam,), alpha
            )
            samples.append(sample_mixture(spec, truth, plan.n_samples, rng))
            fcfgs.append(FitConfig(
                restarts=plan.restarts,
                seed=child_seed(seed, gi, rep, _FIT_STREAM),
            ))
        fits = _raise_first_error(fit_models(samples, spec, fcfgs))
        mle = [float(fm.params.alpha) for fm in fits]
        hill = [float(hill_estimate(s, plan.tail_fraction)) for s in samples]
        for rep, (a_mle, a_hill) in enumerate(zip(mle, hill)):
            records.append([float(alpha), rep, "mle", a_mle])
            records.append([float(alpha), rep, "hill", a_hill])
        rel_err = [abs(a - alpha) / alpha for a in mle]
        points.append(
            {
                "alpha": float(alpha),
                "mle_median": float(np.median(mle)),
                "mle_median_rel_err": float(np.median(rel_err)),
                "mle_iqr": _iqr(mle),
                "hill_median": float(np.median(hill)),
                "hill_iqr": _iqr(hill),
            }
        )
    gates = {
        "max_mle_median_rel_err": max(p["mle_median_rel_err"] for p in points),
        "max_mle_iqr": max(p["mle_iqr"] for p in points),
        "pass_median_rel_err": all(p["mle_median_rel_err"] <= 0.05 for p in points),
        "pass_mle_iqr": all(p["mle_iqr"] <= 0.15 for p in points),
        "pass_hill_spread": all(p["hill_iqr"] > p["mle_iqr"] for p in points),
    }
    gates["pass"] = (
        gates["pass_median_rel_err"] and gates["pass_mle_iqr"]
        and gates["pass_hill_spread"]
    )
    return {
        "study": "alpha-recovery",
        "plan": asdict(plan),
        "seed": seed,
        "points": points,
        "records": records,
        "gates": gates,
    }


def run_selection_strength(plan: SelectionPlan, seed: int = DEFAULT_SEED) -> dict:
    """Run the selection-strength study; the report is a JSON-ready dict.

    Each replicate samples from the row's truth and runs the nested
    selection walk; the replicates of a row walk together (select_many).
    Rows tracking the EEP-over-EP factor fit the EEP model even when the
    walk stopped at P, so the tracked statistic is always defined.
    """
    rows_out = []
    for ri, row in enumerate(plan.rows):
        truth_spec = _spec_for(row.truth_label, plan.x_min)
        reps = []
        tracked = []
        chosen_counts = dict.fromkeys(LABELS, 0)
        samples = [
            sample_mixture(truth_spec, row.truth_params, row.n_samples,
                           substream(seed, ri, rep, _DATA_STREAM))
            for rep in range(plan.n_replicates)
        ]
        fcfgs = [
            FitConfig(restarts=plan.restarts,
                      seed=child_seed(seed, ri, rep, _FIT_STREAM))
            for rep in range(plan.n_replicates)
        ]
        sels = _raise_first_error(select_many(
            samples, fcfgs, x_min=plan.x_min, threshold=plan.threshold,
            eep_always=row.metric == "eep_ep",
        ))
        for rep, sel in enumerate(sels):
            bf_eep_ep = sel.log_bf_eep_ep
            if row.metric == "eep_ep" and bf_eep_ep is None:
                raise FitError(sel.eep_failure)
            chosen_counts[sel.chosen] += 1
            rec = {
                "rep": rep,
                "chosen": sel.chosen,
                "log_bf_ep_p": float(sel.log_bf_ep_p),
                "log_bf_eep_ep": None if bf_eep_ep is None else float(bf_eep_ep),
            }
            if row.metric == "ep_p":
                tracked.append(rec["log_bf_ep_p"])
            elif row.metric == "eep_ep":
                tracked.append(rec["log_bf_eep_ep"])
            reps.append(rec)
        out = asdict(row)
        del out["truth_params"]  # the plan block holds it
        out.update(
            choice_rate=chosen_counts[row.expected_choice] / plan.n_replicates,
            chosen_counts=chosen_counts,
            replicates=reps,
        )
        if tracked:
            out["median_log10_bf"] = float(np.median(tracked) / _LN10)
        checks = []
        if row.gate_median_log10 is not None:
            checks.append(out["median_log10_bf"] >= row.gate_median_log10)
        if row.gate_choice_rate is not None:
            checks.append(out["choice_rate"] >= row.gate_choice_rate)
        out["pass"] = all(checks) if checks else None
        rows_out.append(out)
    gated = [r for r in rows_out if r["pass"] is not None]
    return {
        "study": "selection-strength",
        "plan": asdict(plan),
        "seed": seed,
        "rows": rows_out,
        "gates": {
            "rows_with_gates": [r["row_id"] for r in gated],
            "pass": all(r["pass"] for r in gated),
        },
    }


def run_preset(name: str, seed: int = DEFAULT_SEED) -> dict:
    """Run a named preset end to end."""
    plan = get_preset(name)
    if isinstance(plan, RecoveryPlan):
        return run_alpha_recovery(plan, seed)
    return run_selection_strength(plan, seed)
