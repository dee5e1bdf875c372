"""Model selection by BIC-approximated log Bayes factors.

Candidate models are nested: P inside EP inside EEP. Selection walks up
the ladder and only accepts the larger model when the log Bayes factor
(natural log) clears a conservative threshold, so extra components must
earn their place.

select_many walks many series at once, rung by rung: every P fit, then
every EP fit, then EEP on the series whose EP fit won, each rung in one
fit_models lockstep. select_nested is its one-series case and fits each
rung through fit_model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ContractError, DomainError, TailmixError
# bic lives in fit; it is imported here so select.bic keeps working
from .fit import FitConfig, FittedModel, bic, fit_model, fit_models
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


def _fit_each(series_list, spec, configs):
    """One rung fitted series by series through fit_model, each error
    returned in place of its model. select_nested fits this way so that
    each of its fits is one call of select.fit_model, the name that
    perfbench times and traces."""
    results = []
    for series, config in zip(series_list, configs, strict=True):
        try:
            results.append(fit_model(series, spec, config))
        except TailmixError as exc:
            results.append(exc)
    return results


def _walk(series_list, configs, fit_rung, x_min, exp_mode, threshold,
          eep_always=False):
    """The nested walk over many series, rung by rung.

    ``fit_rung(series_list, spec, configs)`` fits one model to several
    series and returns one FittedModel or TailmixError per series. Every
    series gets its P fit, then every series whose P fit worked its EP
    fit, then the series whose EP fit won (all with ``eep_always``)
    their EEP fit. Returns one SelectionResult or TailmixError per
    series.
    """
    if not (threshold > 0):
        raise DomainError(f"threshold must be positive, got {threshold}")

    def rung(n_exp, todo):
        spec = ModelSpec(n_exp, x_min=x_min, exp_mode=exp_mode)
        fits = fit_rung([series_list[i] for i in todo], spec,
                        [configs[i] for i in todo])
        return dict(zip(todo, fits, strict=True))

    fit_p = rung(0, range(len(series_list)))
    fit_ep = rung(1, [i for i, m in fit_p.items() if isinstance(m, FittedModel)])
    bf_ep_p = {i: log_bayes_factor(m, fit_p[i]) for i, m in fit_ep.items()
               if isinstance(m, FittedModel)}
    fit_eep = rung(2, [i for i, bf in bf_ep_p.items()
                       if eep_always or bf > threshold])
    out = []
    for i, p in fit_p.items():
        if i not in bf_ep_p:  # the P or the EP fit failed
            out.append(fit_ep.get(i, p))
            continue
        models = {"P": p, "EP": fit_ep[i]}
        chosen = "EP" if bf_ep_p[i] > threshold else "P"
        bf_eep_ep, eep_failure = None, None
        eep = fit_eep.get(i)
        if isinstance(eep, TailmixError):
            eep_failure = str(eep)
        elif eep is not None:
            models["EEP"] = eep
            bf_eep_ep = log_bayes_factor(eep, fit_ep[i])
            if chosen == "EP" and bf_eep_ep > threshold:
                chosen = "EEP"
        out.append(SelectionResult(
            chosen=chosen,
            models=models,
            log_bf_ep_p=bf_ep_p[i],
            log_bf_eep_ep=bf_eep_ep,
            threshold=threshold,
            eep_failure=eep_failure,
        ))
    return out


def select_many(
    series_list,
    configs,
    *,
    x_min: int = 1,
    exp_mode: str = "discrete",
    threshold: float = DEFAULT_THRESHOLD,
    eep_always: bool = False,
) -> list:
    """The nested walk of select_nested on many series at once.

    ``configs[j]`` seeds the fits of series j. Each rung fits all its
    series together through fit_models, so each result is bit-identical
    to select_nested on that series alone. Returns one SelectionResult
    per series, or the TailmixError that series' P or EP fit hit; one
    series' error does not stop the others. With ``eep_always`` the EEP
    fit runs, and its factor over EP is recorded, on every series whose
    EP fit worked, whether or not EP won; the choice is the walk's.
    """
    return _walk(series_list, configs, fit_models, x_min, exp_mode, threshold,
                 eep_always)


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
    stands and the failure is recorded on the result. A failed P or EP
    fit raises its DataError or FitError. This is the one-series case of
    the walk in select_many, with each rung fitted through fit_model.
    """
    if config is None:
        config = FitConfig()
    (sel,) = _walk([series], [config], _fit_each, x_min, exp_mode, threshold)
    if isinstance(sel, TailmixError):
        raise sel
    return sel
