"""Shared scenario constants, reference rules and session-cached heavy runs.

The acceptance scenario is frozen here: logistic model with unit scale,
kappa = 0.5, r = 1000, Gaussian start with entry fraction 0.2 and width
1.5. The width is the one free parameter of the scenario; 1.5 keeps the
fitted aggregate rate inside the factor-2 band on both engines with
margin (see the README on calibration). Heavy runs are computed once
per session and reused by module and acceptance tests; their wall-clock
times are recorded for the runtime budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from entrydyn.abm import Gaussian, TwoSpike, _update, ensemble_run, simulate
from entrydyn.core import GameParams, LearningRule, Logistic
from entrydyn.grid import GridSpec, gaussian_density, gaussian_mean_for_entry_fraction
from entrydyn.kinetic import SolverOptions, solve

MODEL = Logistic(scale=1.0, center=0.0)
GRID = GridSpec(-12.0, 12.0, 800)
INIT_SD = 1.5
TARGET_A0 = 0.2
BASE_SEED = 20260816

PDE_PARAMS = GameParams(
    n_agents=1000,
    capacity=500,
    payoff_scale=0.01,
    rounds_per_unit=100,
    rule=LearningRule.BASIC_REINFORCEMENT,
)

# Same kappa and r at N = 10^4: per-round aggregate kicks shrink with h
# so records stay dense relative to the transient (see README).
ABM_BASIC_PARAMS = GameParams(
    n_agents=10_000,
    capacity=5_000,
    payoff_scale=1e-4,
    rounds_per_unit=1000,
    rule=LearningRule.BASIC_REINFORCEMENT,
)
ABM_FICT_PARAMS = GameParams(
    n_agents=10_000,
    capacity=5_000,
    payoff_scale=1e-4,
    rounds_per_unit=1000,
    rule=LearningRule.FICTITIOUS_STOCHASTIC,
)
PDE_FICT_PARAMS = GameParams(
    n_agents=1000,
    capacity=500,
    payoff_scale=0.01,
    rounds_per_unit=100,
    rule=LearningRule.FICTITIOUS_STOCHASTIC,
)

REPLICAS = 8


@dataclass(frozen=True)
class CountingLogistic(Logistic):
    """Logistic that records each prob call as (number of propensities, wrote into a buffer)."""

    calls: list = field(default_factory=list, compare=False)

    def prob(self, q, out=None):
        self.calls.append((np.size(q), out is not None))
        return super().prob(q, out=out)


# the scalar learning rule, the reference for the vectorised round in abm
def _check_entrant_count(entered: bool, m: int, params: GameParams) -> None:
    if not 0 <= m <= params.n_agents:
        raise ValueError(f"entrant count m={m} outside 0..{params.n_agents}")
    if entered and m < 1:
        raise ValueError("entered agent implies at least one entrant, got m=0")


def payoff(entered: bool, m: int, params: GameParams) -> float:
    """Payoff to one agent given its entry decision and the round's entrant count."""
    _check_entrant_count(entered, m, params)
    # staying out pays the outside payoff, fixed at 0
    if not entered:
        return 0.0
    return params.payoff_scale * (params.capacity - m)


def update_propensity(q: float, entered: bool, m: int, params: GameParams) -> float:
    """Propensity after one round under the configured learning rule."""
    _check_entrant_count(entered, m, params)
    h = params.payoff_scale
    gain = h * (params.capacity - m)
    if params.rule is LearningRule.BASIC_REINFORCEMENT:
        return q + gain if entered else q
    return q + gain - (0.0 if entered else h)


def play_round(q, params, model, rng):
    """One round on a copy of q, drawn against the exact p: (new q, entered, m).

    The decisions are u < model.prob(q) on fresh arrays, and abm._update
    applies the rule, so this is the reference for simulate's draws.
    """
    q_next = np.array(q, dtype=float)
    entered = rng.random(q_next.size) < model.prob(q_next)
    m = _update(q_next, entered, params, np.empty_like(q_next))
    return q_next, entered, m


@pytest.fixture(scope="session")
def walls() -> dict[str, float]:
    """Wall-clock seconds of each session fixture, keyed by name."""
    return {}


@pytest.fixture(scope="session")
def init_mean() -> float:
    return gaussian_mean_for_entry_fraction(MODEL, INIT_SD, TARGET_A0)


@pytest.fixture(scope="session")
def acceptance_f0(init_mean):
    return gaussian_density(GRID, init_mean, INIT_SD)


@pytest.fixture(scope="session")
def pde_acceptance(acceptance_f0, walls):
    """Basic-rule PDE on the acceptance scenario out to 3 sorting times."""
    options = SolverOptions(
        t_end=0.6,
        output_interval=0.001,
        snapshot_times=(0.0, 0.06, 0.3),
    )
    start = time.perf_counter()
    result = solve(acceptance_f0, PDE_PARAMS, MODEL, options)
    walls["pde_acceptance"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def pde_fict_short(acceptance_f0, walls):
    """Fictitious-rule PDE over the early-agreement window [0, 5*tau_al]."""
    options = SolverOptions(t_end=0.005, output_interval=0.001)
    start = time.perf_counter()
    result = solve(acceptance_f0, PDE_FICT_PARAMS, MODEL, options)
    walls["pde_fict_short"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def abm_basic_ensemble(init_mean, walls):
    start = time.perf_counter()
    series = ensemble_run(
        ABM_BASIC_PARAMS,
        MODEL,
        Gaussian(init_mean, INIT_SD),
        t_end=0.1,
        n_replicas=REPLICAS,
        base_seed=BASE_SEED,
    )
    walls["abm_basic_ensemble"] = time.perf_counter() - start
    return series


@pytest.fixture(scope="session")
def abm_fict_ensemble(init_mean, walls):
    start = time.perf_counter()
    series = ensemble_run(
        ABM_FICT_PARAMS,
        MODEL,
        Gaussian(init_mean, INIT_SD),
        t_end=0.005,
        n_replicas=REPLICAS,
        base_seed=BASE_SEED,
    )
    walls["abm_fict_ensemble"] = time.perf_counter() - start
    return series


@pytest.fixture(scope="session")
def abm_sorted_run():
    """Single sorted-start run: spikes deep in both saturation tails."""
    return simulate(
        GameParams(1000, 500, 0.01, 100, LearningRule.BASIC_REINFORCEMENT),
        MODEL,
        TwoSpike(-40.0, 40.0, 0.5),
        t_end=0.2,
        seed=BASE_SEED,
    )
