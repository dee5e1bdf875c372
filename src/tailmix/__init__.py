"""Heavy-tailed mixture modeling of binned flow-arrival counts.

Fits nested mixtures of discrete exponentials with a discrete power-law
tail by constrained maximum likelihood, selects among them with
BIC-approximated log Bayes factors, and classifies count bins into
exponential-body and power-tail regimes.
"""

__version__ = "0.1.0"

from .dists import (
    ExpParams,
    ParetoParams,
    hurwitz_zeta,
    hurwitz_zeta_dalpha,
    sample_exp,
    sample_pareto,
)
from .errors import (
    ContractError,
    DataError,
    DomainError,
    EstimationError,
    FitError,
    TailmixError,
    UnsupportedOperationError,
)
from .experiments import (
    PRESETS,
    hill_estimate,
    run_alpha_recovery,
    run_preset,
    run_selection_strength,
)
from .fit import FitConfig, FittedModel, bic, fit_model, fit_models
from .ingest import (
    STANDARD_WINDOWS,
    bin_at_windows,
    bin_flows,
    read_flow_file,
    read_series_file,
    read_uptime_file,
    write_series_file,
)
from .mixture import (
    BinnedSeries,
    MixtureParams,
    ModelSpec,
    log_likelihood,
    mixture_log_pmf,
    mixture_pmf,
    responsibilities,
    sample_mixture,
    tail_threshold,
)
from .seeding import DEFAULT_SEED, child_seed, substream
from .select import (
    DEFAULT_THRESHOLD,
    SelectionResult,
    Strength,
    log_bayes_factor,
    select_many,
    select_nested,
    strength_label,
)

__all__ = [
    "__version__",
    "BinnedSeries",
    "ContractError",
    "DataError",
    "DEFAULT_SEED",
    "DEFAULT_THRESHOLD",
    "DomainError",
    "EstimationError",
    "ExpParams",
    "FitConfig",
    "FitError",
    "FittedModel",
    "MixtureParams",
    "ModelSpec",
    "ParetoParams",
    "PRESETS",
    "SelectionResult",
    "STANDARD_WINDOWS",
    "Strength",
    "TailmixError",
    "UnsupportedOperationError",
    "bic",
    "bin_at_windows",
    "bin_flows",
    "child_seed",
    "fit_model",
    "fit_models",
    "hill_estimate",
    "hurwitz_zeta",
    "hurwitz_zeta_dalpha",
    "log_bayes_factor",
    "log_likelihood",
    "mixture_log_pmf",
    "mixture_pmf",
    "read_flow_file",
    "read_series_file",
    "read_uptime_file",
    "responsibilities",
    "run_alpha_recovery",
    "run_preset",
    "run_selection_strength",
    "sample_exp",
    "sample_mixture",
    "sample_pareto",
    "select_many",
    "select_nested",
    "strength_label",
    "substream",
    "tail_threshold",
    "write_series_file",
]
