"""Agent-based engine for the repeated market entry game.

Rounds are two-phase: every entry decision in a round is drawn from the
pre-round propensities, then all updates are applied at once.  Recorded
observables are likewise computed from the pre-round state, so a record at
time t reflects the population that played the round at t.  This module
does no file I/O; series and density snapshots are handed to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import GameParams, LearningRule, ProbabilityModel
from .grid import DensityGrid, GridSpec, gaussian_density, histogram_density, two_spike_density
from .observables import ObservableSeries, Recorder


@dataclass(frozen=True)
class AllEqual:
    """Every agent starts at the same propensity."""

    kind: ClassVar[str] = "all_equal"
    value: float


@dataclass(frozen=True)
class Gaussian:
    """Independent normal draws; optionally snapped to the lattice {mean + k*h}.

    Snapping keeps the whole population on one step lattice, which both
    learning rules then preserve exactly.
    """

    kind: ClassVar[str] = "gaussian"
    mean: float
    sd: float
    snap_to_lattice: bool = False

    def __post_init__(self) -> None:
        if not self.sd > 0:
            raise ValueError(f"sd must be positive, got {self.sd}")


@dataclass(frozen=True)
class Explicit:
    """Caller-provided propensities, one per agent."""

    kind: ClassVar[str] = "explicit"
    values: tuple[float, ...]


@dataclass(frozen=True)
class TwoSpike:
    """A sorted start: round(mass_high*N) agents at q_high, the rest at q_low."""

    kind: ClassVar[str] = "two_spike"
    q_low: float
    q_high: float
    mass_high: float

    def __post_init__(self) -> None:
        if not self.q_low < self.q_high:
            raise ValueError(f"q_low must be below q_high, got {self.q_low} >= {self.q_high}")
        if not 0.0 <= self.mass_high <= 1.0:
            raise ValueError(f"mass_high must lie in [0, 1], got {self.mass_high}")


InitialCondition = AllEqual | Gaussian | Explicit | TwoSpike


def init_population(
    params: GameParams,
    init: InitialCondition,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """The agents' start propensities, one float per agent."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = params.n_agents
    if isinstance(init, AllEqual):
        q = np.full(n, float(init.value))
    elif isinstance(init, Gaussian):
        q = init.mean + init.sd * rng.standard_normal(n)
        if init.snap_to_lattice:
            h = params.payoff_scale
            q = init.mean + np.round((q - init.mean) / h) * h
    elif isinstance(init, Explicit):
        q = np.asarray(init.values, dtype=float)
        if q.shape != (n,):
            raise ValueError(f"explicit init has {q.size} values for {n} agents")
        q = q.copy()
    elif isinstance(init, TwoSpike):
        n_high = int(round(init.mass_high * n))
        q = np.concatenate(
            [np.full(n - n_high, float(init.q_low)), np.full(n_high, float(init.q_high))]
        )
    else:
        raise TypeError(f"unknown initial condition {init!r}")
    return q


def initial_density(init: InitialCondition, spec: GridSpec) -> DensityGrid:
    """The same start state as a unit-mass density on spec, for the density engine.

    Point starts (all_equal, explicit) are binned exactly as the agent
    engine's density snapshots bin its population.
    """
    if isinstance(init, AllEqual):
        return histogram_density(spec, [init.value])
    if isinstance(init, Gaussian):
        return gaussian_density(spec, init.mean, init.sd)
    if isinstance(init, Explicit):
        return histogram_density(spec, init.values)
    if isinstance(init, TwoSpike):
        return two_spike_density(spec, init.q_low, init.q_high, init.mass_high)
    raise TypeError(f"unknown initial condition {init!r}")


def _update(q: np.ndarray, entered: np.ndarray, params: GameParams, work: np.ndarray) -> int:
    """Apply one round's learning rule to q in place and return m.

    entered holds the round's decisions and work (float, q's size) is
    scratch.  The arithmetic is that of q + gain * entered and
    q + gain - h * ~entered, operation for operation, so results are
    bit-identical to the allocating forms.
    """
    m = int(np.count_nonzero(entered))
    h = params.payoff_scale
    gain = h * (params.capacity - m)
    if params.rule is LearningRule.BASIC_REINFORCEMENT:
        np.multiply(entered, gain, out=work)
        q += work
    else:
        np.subtract(1.0, entered, out=work)
        work *= h
        q += gain
        q -= work
    return m


def _moments(p: np.ndarray, work: np.ndarray) -> tuple[float, float]:
    """a = mean p and b = mean p(1 - p), using work (p's size) as scratch."""
    np.subtract(1.0, p, out=work)
    work *= p
    return float(p.mean()), float(work.mean())


@dataclass
class SimulationResult:
    series: ObservableSeries
    snapshots: list[tuple[float, DensityGrid]] = field(default_factory=list)
    final: np.ndarray | None = None


def simulate(
    params: GameParams,
    model: ProbabilityModel,
    init: InitialCondition,
    t_end: float,
    seed: int | np.random.Generator,
    record_stride: int = 1,
    snapshot_times: tuple[float, ...] = (),
    snapshot_grid: GridSpec | None = None,
) -> SimulationResult:
    """Run ceil(t_end * M) rounds, recording every record_stride rounds.

    Records always include round 0 and the final round.  The m_frac column
    holds the realized entrant fraction of the round played at each record
    time; the final record has no following round and gets NaN.

    A recorded round evaluates the probability model exactly once, into a
    buffer that both the record and the round's entry draws read.  Other
    rounds need p only through the draws u < p, and take them from
    model.enters: for the logistic model that compares u with a fast
    vectorised p and recomputes p exactly only for the agents whose draw
    lies within core._TIE (2**-40) of it, so the decisions, and every
    output, are bit-identical to comparing with the exact p.  Propensities
    are updated in place: no agent-sized float array is allocated per
    round, except for a requested density snapshot.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    if snapshot_times and snapshot_grid is None:
        raise ValueError("snapshot_times given without a snapshot_grid")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q = init_population(params, init, rng)
    p = np.empty_like(q)
    work = np.empty_like(q)
    entered = np.empty(q.shape, dtype=bool)
    n_rounds = max(1, math.ceil(t_end * params.rounds_per_unit - 1e-9))
    recorder = Recorder(snapshot_times)
    m_frac: list[float] = []

    for n in range(n_rounds + 1):
        is_record = (n % record_stride == 0) or (n == n_rounds)
        if is_record:
            model.prob(q, out=p)
            a, b = _moments(p, work)
            recorder.record(n * params.tau, a, b, lambda: histogram_density(snapshot_grid, q), n == n_rounds)
        if n < n_rounds:
            rng.random(out=work)
            if is_record:
                np.less(work, p, out=entered)
            else:
                # p is free on this round and serves as the scratch array
                model.enters(q, work, entered, p)
            m = _update(q, entered, params, work)
            if is_record:
                m_frac.append(m / params.n_agents)
    m_frac.append(math.nan)

    series = recorder.series(m_frac=m_frac)
    return SimulationResult(series=series, snapshots=recorder.snapshots, final=q)


def ensemble_run(
    params: GameParams,
    model: ProbabilityModel,
    init: InitialCondition,
    t_end: float,
    n_replicas: int,
    base_seed: int,
    record_stride: int = 1,
) -> ObservableSeries:
    """Pointwise mean of n_replicas independent runs, replica i seeded base_seed + i.

    Replicas run in turn in the calling process, so a rerun reproduces the
    series bit for bit.  With two or more replicas the series carries the
    per-time standard errors of a and b (sample sd / sqrt(R)).
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    results = [
        simulate(params, model, init, t_end, base_seed + i, record_stride).series
        for i in range(n_replicas)
    ]

    if n_replicas == 1:
        return results[0]
    stacked = {name: np.stack([getattr(s, name) for s in results]) for name in ("a", "b", "m_frac")}
    scale = 1.0 / math.sqrt(n_replicas)
    return ObservableSeries(
        t=results[0].t,
        **{name: column.mean(axis=0) for name, column in stacked.items()},
        stderr_a=stacked["a"].std(axis=0, ddof=1) * scale,
        stderr_b=stacked["b"].std(axis=0, ddof=1) * scale,
    )
