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
from hypothesis import settings
from scipy.linalg.lapack import dptsv

from entrydyn.abm import Gaussian, TwoSpike, ensemble_run, simulate
from entrydyn.core import GameParams, LearningRule, Logistic
from entrydyn.grid import GridSpec
from entrydyn.kinetic import SolverOptions, diffusion_coefficient, solve

# each run draws the same hypothesis examples, so the suite's wall time and
# any failure repeat; no example database is read or written
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

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
    """One round on fresh arrays, drawn against the exact p: (new q, entered, m).

    The decisions are u < model.prob(q) and the rule is applied in its
    allocating forms, q + gain * entered and q + gain - h * ~entered, so
    this reference shares no round code with simulate.
    """
    q = np.asarray(q, dtype=float)
    entered = rng.random(q.size) < model.prob(q)
    m = int(np.count_nonzero(entered))
    h = params.payoff_scale
    gain = h * (params.capacity - m)
    if params.rule is LearningRule.BASIC_REINFORCEMENT:
        return q + gain * entered, entered, m
    return q + gain - h * ~entered, entered, m



def instance_tuples(chunk):
    """Each row of an oracle chunk, such as oracle.random_instance draws, as a
    (propensities, params, model) instance: the reference form, one object
    per instance.  The chunk has no rounds per unit; the oracle reads none."""
    rules = (LearningRule.BASIC_REINFORCEMENT, LearningRule.FICTITIOUS_STOCHASTIC)
    instances = []
    for b in range(len(chunk)):
        n = int(chunk.n_agents[b])
        params = GameParams(n, int(chunk.capacity[b]), float(chunk.payoff_scale[b]), 10, rules[int(chunk.fictitious[b])])
        model = Logistic(float(chunk.scale[b]), float(chunk.center[b]))
        instances.append((chunk.propensities[b, :n].copy(), params, model))
    return instances

# the density step in its allocating forms, the reference for kinetic's
# in-place step: same operations in the same order, on fresh arrays
def step_face_coefficients(a, b, params, p_face, dp_face):
    """Face v and mu: drive p - D p' and D p."""
    drive = params.r * (params.kappa - a)
    d_coef = diffusion_coefficient(a, b, params)
    return drive * p_face - d_coef * dp_face, d_coef * p_face


def step_advective_dt(dq, v, cfl_safety, cap):
    """cfl_safety dq / max|v|, capped at cap."""
    v_max = float(np.max(np.abs(v))) if np.size(v) else 0.0
    return min(cap, cfl_safety * dq / v_max) if v_max > 0 else cap


def step_apply(f, v, mu, dt, dq):
    """Upwind advection, then one backward-Euler diffusion solve of (I + dt A)."""
    ratio = dt / dq
    flux = ratio * v * np.where(v > 0, f[:-1], f[1:])
    rhs = f.copy()
    rhs[:-1] -= flux
    rhs[1:] += flux
    k = (ratio / dq) * mu
    diag = np.ones_like(f)
    diag[:-1] += k
    diag[1:] += k
    *_, out, info = dptsv(diag, -k, rhs)
    assert info == 0
    return out


@pytest.fixture(scope="session")
def walls() -> dict[str, float]:
    """Wall-clock seconds of each session fixture, keyed by name."""
    return {}


@pytest.fixture(scope="session")
def init_mean() -> float:
    return Gaussian(0.0, INIT_SD).with_entry_fraction(MODEL, TARGET_A0).mean


@pytest.fixture(scope="session")
def acceptance_f0(init_mean):
    return Gaussian(init_mean, INIT_SD).density(GRID)


@pytest.fixture(scope="session")
def pde_acceptance(acceptance_f0, walls):
    """Basic-rule PDE on the acceptance scenario out to 3 sorting times."""
    options = SolverOptions(output_interval=0.001)
    start = time.perf_counter()
    result = solve(acceptance_f0, PDE_PARAMS, MODEL, 0.6, options, (0.0, 0.06, 0.3))
    walls["pde_acceptance"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def pde_fict_short(acceptance_f0, walls):
    """Fictitious-rule PDE over the early-agreement window [0, 5*tau_al]."""
    options = SolverOptions(output_interval=0.001)
    start = time.perf_counter()
    result = solve(acceptance_f0, PDE_FICT_PARAMS, MODEL, 0.005, options)
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
