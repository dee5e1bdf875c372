"""Model selection by BIC-approximated log Bayes factors.

Candidate models are nested: P inside EP inside EEP. Selection walks up
the ladder and only accepts the larger model when the log Bayes factor
(natural log) clears a conservative threshold, so extra components must
earn their place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ContractError, DomainError, FitError
# bic lives in fit; it is imported here so select.bic keeps working
from .fit import FitConfig, FittedModel, bic, fit_model
from .mixture import ModelSpec

# Accept the larger nested model only above this natural-log Bayes
# factor (odds beyond twenty thousand to one).
DEFAULT_THRESHOLD = 10.0

# Evidence bands on |log BF|, half-open on the left edge. The two scales
# carry the conventional cut points, which are rounded independently, so
# band edges do not convert exactly between scales.
_BANDS = {
    "log10": (1.3, 2.0, 3.0),
    "natural": (3.0, 4.5, 7.0),
}
_BAND_NAMES = ("negligible", "substantial", "strong", "decisive")


class Strength(NamedTuple):
    label: str
    sign: int


def log_bayes_factor(model_a: FittedModel, model_b: FittedModel) -> float:
    """Natural-log Bayes factor of model_a over model_b on shared data."""
    if model_a.data_fingerprint != model_b.data_fingerprint:
        raise ContractError("models were fit on different data")
    return model_a.bic - model_b.bic


def strength_label(log_bf: float, base: str = "natural") -> Strength:
    """Evidence band of |log BF| plus the sign of the comparison."""
    if base not in _BANDS:
        raise DomainError(f"base must be 'natural' or 'log10', got {base!r}")
    cuts = _BANDS[base]
    mag = abs(log_bf)
    idx = sum(mag >= c for c in cuts)
    sign = 0 if log_bf == 0 else (1 if log_bf > 0 else -1)
    return Strength(_BAND_NAMES[idx], sign)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the nested model walk on one series."""

    chosen: str
    models: dict = field(compare=False)
    log_bf_ep_p: float = float("nan")
    log_bf_eep_ep: float | None = None
    threshold: float = DEFAULT_THRESHOLD
    eep_failure: str | None = None

    @property
    def chosen_model(self) -> FittedModel:
        return self.models[self.chosen]

    def strengths(self, base: str = "log10") -> dict:
        out = {"EP_vs_P": strength_label(self.log_bf_ep_p, base)}
        if self.log_bf_eep_ep is not None:
            out["EEP_vs_EP"] = strength_label(self.log_bf_eep_ep, base)
        return out


def select_nested(
    series,
    config: FitConfig | None = None,
    *,
    x_min: int = 1,
    exp_mode: str = "discrete",
    threshold: float = DEFAULT_THRESHOLD,
) -> SelectionResult:
    """Fit P and EP, then EEP only if EP already beats P decisively.

    The larger model is accepted only when its log Bayes factor over the
    incumbent strictly exceeds the threshold; ties keep the simpler
    model. If the EEP fit fails, the completed P-versus-EP comparison
    stands and the failure is recorded on the result.
    """
    if not (threshold > 0):
        raise DomainError(f"threshold must be positive, got {threshold}")
    if config is None:
        config = FitConfig()
    fit_p = fit_model(series, ModelSpec(0, x_min=x_min, exp_mode=exp_mode), config)
    fit_ep = fit_model(series, ModelSpec(1, x_min=x_min, exp_mode=exp_mode), config)
    models = {"P": fit_p, "EP": fit_ep}
    bf_ep_p = log_bayes_factor(fit_ep, fit_p)
    chosen, bf_eep_ep, eep_failure = "P", None, None
    if bf_ep_p > threshold:
        chosen = "EP"
        try:
            fit_eep = fit_model(
                series, ModelSpec(2, x_min=x_min, exp_mode=exp_mode), config
            )
        except FitError as exc:
            eep_failure = str(exc)
        else:
            models["EEP"] = fit_eep
            bf_eep_ep = log_bayes_factor(fit_eep, fit_ep)
            if bf_eep_ep > threshold:
                chosen = "EEP"
    return SelectionResult(
        chosen=chosen,
        models=models,
        log_bf_ep_p=bf_ep_p,
        log_bf_eep_ep=bf_eep_ep,
        threshold=threshold,
        eep_failure=eep_failure,
    )
