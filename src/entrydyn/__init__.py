"""Market entry games under adaptive learning: simulation and analysis.

Three levels of description of the same dynamics, built to be checked
against each other:

- exact enumeration of single rounds for small populations (`oracle`)
- an agent-based Monte Carlo engine for large populations (`abm`)
- a mean-field drift-diffusion solver for the propensity density (`kinetic`)

plus decay-rate measurement utilities (`analysis`) and a batch CLI (`cli`).
"""

from .abm import (
    AllEqual,
    Explicit,
    Gaussian,
    InitialCondition,
    PopulationState,
    SimulationResult,
    TwoSpike,
    empirical_density,
    ensemble_run,
    init_population,
    simulate,
)
from .analysis import (
    ComparisonResult,
    DecayFit,
    FitError,
    aggregate_learning_fit,
    compare_series,
    fit_exponential_decay,
    initial_learning_constant,
    initial_learning_constant_from_propensities,
    moment_ode_a,
    sorting_fit,
    within_factor,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .core import (
    DomainError,
    ErevRothRatio,
    GameParams,
    LearningRule,
    Logistic,
    ProbabilityModel,
    TimeScales,
    predicted_time_scales,
)
from .grid import (
    DensityGrid,
    GridSpec,
    default_grid,
    gaussian_density,
    gaussian_mean_for_entry_fraction,
    two_spike_density,
)
from .kinetic import PdeResult, SolverOptions, solve
from .observables import ObservableSeries
from .runio import read_density, read_json, read_series, write_density, write_json, write_series
from .oracle import (
    DriftCheck,
    RoundLaw,
    enumerate_round,
    expected_drift_check,
    poisson_binomial_pmf,
)

__version__ = "0.1.0"

__all__ = [
    "AllEqual",
    "ComparisonResult",
    "ConfigError",
    "DecayFit",
    "DensityGrid",
    "DomainError",
    "DriftCheck",
    "ErevRothRatio",
    "Explicit",
    "FitError",
    "GameParams",
    "Gaussian",
    "GridSpec",
    "InitialCondition",
    "LearningRule",
    "Logistic",
    "ObservableSeries",
    "PdeResult",
    "PopulationState",
    "ProbabilityModel",
    "RoundLaw",
    "RunConfig",
    "SimulationResult",
    "SolverOptions",
    "TimeScales",
    "TwoSpike",
    "aggregate_learning_fit",
    "compare_series",
    "default_grid",
    "empirical_density",
    "ensemble_run",
    "enumerate_round",
    "expected_drift_check",
    "fit_exponential_decay",
    "gaussian_density",
    "gaussian_mean_for_entry_fraction",
    "init_population",
    "initial_learning_constant",
    "initial_learning_constant_from_propensities",
    "load_config",
    "moment_ode_a",
    "parse_config",
    "poisson_binomial_pmf",
    "predicted_time_scales",
    "read_density",
    "read_json",
    "read_series",
    "simulate",
    "solve",
    "sorting_fit",
    "two_spike_density",
    "within_factor",
    "write_density",
    "write_json",
    "write_series",
]
