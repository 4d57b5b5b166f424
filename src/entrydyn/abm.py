"""Agent-based engine for the repeated market entry game.

Rounds are two-phase: every entry decision in a round is drawn from the
pre-round propensities, then all updates are applied at once.  Recorded
observables are likewise computed from the pre-round state, so a record at
time t reflects the population that played the round at t.  This module
does no file I/O; series and density snapshots are handed to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
from scipy.optimize import brentq

from .core import BLOCK_AGENTS as _BLOCK
from .core import GameParams, LearningRule, Logistic, pairwise_fold, pairwise_leaves
from .grid import DensityGrid, GridSpec, histogram_density
from .observables import ObservableSeries, Recorder

# Nodes for Gauss-Hermite quadrature of E[g(Q)], Q standard normal.
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)
_GH_WEIGHTS = _GH_WEIGHTS / np.sqrt(np.pi)


@dataclass(frozen=True)
class AllEqual:
    """Every agent starts at the same propensity."""

    kind: ClassVar[str] = "all_equal"
    value: float

    def population(self, params: GameParams, rng: np.random.Generator) -> np.ndarray:
        return np.full(params.n_agents, float(self.value))

    def density(self, spec: GridSpec) -> DensityGrid:
        """The point binned as the agent engine's snapshots bin its population."""
        return histogram_density(spec, [self.value])


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

    def with_entry_fraction(self, model: Logistic, target: float) -> Gaussian:
        """This start with its mean moved so that its expected entry fraction is target.

        Solves E[p(Q)] = target for the mean of Q ~ Normal(mean, sd^2) by 64-node
        Gauss-Hermite quadrature, or, where that root misses by over 1e-10, as when
        the logistic is steep against sd, by the trapezoid rule over 16 sd either
        side at steps of at most sd / 32 and model.scale / 8, up to 2^20 points.
        """
        if not 0.0 < target < 1.0:
            raise ValueError(f"target_entry_fraction must lie in (0, 1), got {target}")
        steps = 256.0 * self.sd / model.scale
        if not steps <= 2**20 - 1:
            raise ValueError(f"sd {self.sd:g} is too wide for model scale {model.scale:g}: more than 2^20 points")
        span = 60.0 * model.scale + 10.0 * self.sd

        def gap(mean: float, offsets: np.ndarray, weights: np.ndarray) -> float:
            return float(weights @ model.prob(mean + offsets)) - target

        def root(*rule: np.ndarray) -> float:
            return brentq(gap, model.center - span, model.center + span, args=rule, xtol=1e-13)

        mean = root(np.sqrt(2.0) * self.sd * _GH_NODES, _GH_WEIGHTS)
        offsets, step = np.linspace(-16.0 * self.sd, 16.0 * self.sd, max(1025, math.ceil(steps) + 1), retstep=True)
        weights = np.exp(-0.5 * (offsets / self.sd) ** 2) * (step / (self.sd * math.sqrt(2.0 * math.pi)))
        if not abs(gap(mean, offsets, weights)) <= 1e-10:
            mean = root(offsets, weights)
        return replace(self, mean=mean)

    def population(self, params: GameParams, rng: np.random.Generator) -> np.ndarray:
        # in place, so the draw holds one float per agent; every pass rounds
        # as mean + sd * x and mean + round((q - mean) / h) * h do
        q = rng.standard_normal(params.n_agents)
        q *= self.sd
        q += self.mean
        if self.snap_to_lattice:
            h = params.payoff_scale
            q -= self.mean
            q /= h
            np.round(q, out=q)
            q *= h
            q += self.mean
        return q

    def density(self, spec: GridSpec) -> DensityGrid:
        """The normal density at the cell centers, renormalized to unit mass."""
        q = spec.centers()
        values = np.exp(-0.5 * ((q - self.mean) / self.sd) ** 2)
        total = values.sum() * spec.dq
        if total <= 0:
            raise ValueError("gaussian mass vanished on the grid; widen the domain")
        return DensityGrid(spec, values / total)


@dataclass(frozen=True)
class Explicit:
    """Caller-provided propensities, one per agent."""

    kind: ClassVar[str] = "explicit"
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("values must hold at least one propensity")

    def population(self, params: GameParams, rng: np.random.Generator) -> np.ndarray:
        q = np.asarray(self.values, dtype=float)
        if q.shape != (params.n_agents,):
            raise ValueError(f"explicit init has {q.size} values for {params.n_agents} agents")
        return q.copy()

    def density(self, spec: GridSpec) -> DensityGrid:
        """The points binned as the agent engine's snapshots bin its population."""
        return histogram_density(spec, self.values)


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

    def population(self, params: GameParams, rng: np.random.Generator) -> np.ndarray:
        n = params.n_agents
        n_high = int(round(self.mass_high * n))
        return np.concatenate([np.full(n - n_high, float(self.q_low)), np.full(n_high, float(self.q_high))])

    def density(self, spec: GridSpec) -> DensityGrid:
        """All mass in the cells histogram_density bins q_low and q_high into, so
        a spike on a cell face starts in the cell of the agent engine's snapshot."""
        if not (spec.q_min < self.q_low < self.q_high < spec.q_max):
            raise ValueError("spike positions must be distinct interior points")
        values = np.zeros(spec.n_cells)
        k_low, k_high = (int(np.argmax(histogram_density(spec, [q]).values)) for q in (self.q_low, self.q_high))
        if k_low == k_high:
            raise ValueError("spike positions fall in the same cell; refine the grid")
        values[k_low] = (1.0 - self.mass_high) / spec.dq
        values[k_high] = self.mass_high / spec.dq
        return DensityGrid(spec, values)


InitialCondition = AllEqual | Gaussian | Explicit | TwoSpike


def _update(q_b: np.ndarray, work_b: np.ndarray, entered_b: np.ndarray, gain: float, params: GameParams) -> None:
    """Apply one round's learning rule in place to one block of agents.

    gain is h * (c - m) and work_b (q_b's size) is scratch.  The decisions
    are cast to 0.0 or 1.0 in work_b, then only float passes follow, those of
    q + gain * entered and q + gain - h * ~entered operation for operation,
    so results, signs of zero included, are bit-identical to those forms.
    """
    np.copyto(work_b, entered_b)
    if params.rule is LearningRule.BASIC_REINFORCEMENT:
        work_b *= gain
        q_b += work_b
    else:
        np.subtract(1.0, work_b, out=work_b)
        work_b *= params.payoff_scale
        q_b += gain
        q_b -= work_b


def _moment_sums(p_b: np.ndarray, work_b: np.ndarray) -> tuple[float, float]:
    """The sums of p and of p(1 - p) over one leaf; p_b is overwritten with p(1 - p).

    work_b (p_b's size) is scratch.  Each sum is np.add.reduce of the leaf,
    so core.pairwise_fold of the leaves' sums is the pairwise sum of the
    whole population.  p(1 - p) is formed as p * (1 - p), the same
    products as (1 - p) * p.
    """
    a = float(np.add.reduce(p_b))
    np.subtract(1.0, p_b, out=work_b)
    p_b *= work_b
    return a, float(np.add.reduce(p_b))


@dataclass
class SimulationResult:
    series: ObservableSeries
    snapshots: list[tuple[float, DensityGrid]] = field(default_factory=list)
    final: np.ndarray | None = None


def simulate(
    params: GameParams,
    model: Logistic,
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
    model.enters, which compares u with a fast vectorised p and recomputes
    p exactly only for the agents whose draw lies within core._TIE (2**-40)
    of it, so the decisions, and every output, are bit-identical to
    comparing with the exact p.

    A run holds q (8 bytes per agent), the decisions (1 byte) and two
    leaf-sized float buffers, p and scratch: about 9 bytes per agent.
    Propensities are updated in place, and no round allocates an
    agent-sized array.  A round is one sweep over the leaves of
    core.pairwise_leaves(N, _BLOCK), consecutive slices of at most
    max(_BLOCK, 128) agents (16 leaves of about 62,500 at N = 10^6).  Its
    update needs m, so it is deferred: the next round, or the final
    record, applies it to each leaf just before the leaf's own passes.  A
    recorded leaf then evaluates p into the p buffer, draws against it,
    and sums p and p(1 - p) with np.add.reduce; core.pairwise_fold adds
    the leaves' sums in numpy's own tree order, so a and b are the
    pairwise sums over the whole population bit for bit.  A population of
    at most max(_BLOCK, 128) agents is one leaf, so a record evaluates p
    of all of it in one call.  The draws fill consecutive slices of one
    Generator stream and every other pass is elementwise, so the outputs
    are bit-identical to whole-array passes.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    if snapshot_times and snapshot_grid is None:
        raise ValueError("snapshot_times given without a snapshot_grid")

    rng = np.random.default_rng(seed)
    q = init.population(params, rng)
    leaves = pairwise_leaves(q.size, _BLOCK)
    p = np.empty(max(j - i for i, j in leaves))
    work = np.empty_like(p)
    entered = np.empty(q.shape, dtype=bool)
    n_rounds = max(1, math.ceil(t_end * params.rounds_per_unit - 1e-9))
    # per leaf: its q and entered views, and the scratch pair p[:size] and work[:size]
    views = [(q[i:j], entered[i:j], p[: j - i], work[: j - i]) for i, j in leaves]
    recorder = Recorder(snapshot_times)
    m_frac: list[float] = []

    for n in range(n_rounds + 1):
        is_record = (n % record_stride == 0) or (n == n_rounds)
        plays = n < n_rounds
        m = 0
        sums = []
        for q_b, entered_b, p_b, work_b in views:
            if n > 0:  # round n - 1's update is still pending
                _update(q_b, work_b, entered_b, gain, params)
            if is_record:
                model.prob(q_b, out=p_b)
                if plays:
                    rng.random(out=work_b)
                    np.less(work_b, p_b, out=entered_b)
                # after the draws, which read p
                sums.append(_moment_sums(p_b, work_b))
            else:
                rng.random(out=work_b)
                model.enters(q_b, work_b, entered_b, p_b)
            if plays:
                m += int(np.count_nonzero(entered_b))
        if plays:
            gain = params.payoff_scale * (params.capacity - m)
        if is_record:
            a_sums, b_sums = zip(*sums)
            a = pairwise_fold(a_sums, q.size, _BLOCK) / q.size
            b = pairwise_fold(b_sums, q.size, _BLOCK) / q.size
            recorder.record(n * params.tau, a, b, lambda: histogram_density(snapshot_grid, q), n == n_rounds)
            m_frac.append(m / params.n_agents if plays else math.nan)

    series = recorder.series(m_frac=m_frac)
    return SimulationResult(series=series, snapshots=recorder.snapshots, final=q)


def ensemble_run(
    params: GameParams,
    model: Logistic,
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
