"""Exact one-round reference laws for small populations.

For N <= 12 agents the 2^N entry patterns are enumerated outright, giving
the exact law of the entrant count m and the joint law of m and each
agent's own decision, hence the exact expected post-round propensities and
observables one round ahead.  The entrant-count law is independently
reproducible through the Poisson-binomial convolution recurrence
(poisson_binomial_rows), and the expected propensity drift has a closed
form, core.expected_drift; both serve as cross-checks on any simulation
engine, and this module only enumerates.  enumerate_block is the one
entry point: it takes a block of instances with one N and one rule and
returns one RoundLaw whose fields stack the instances along a leading
axis, the closed-form drift beside the enumerated one.  The kernel works
row by row, so a sweep pays numpy's per-call cost once per block rather
than per instance; a single instance is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ErevRothRatio, GameParams, LearningRule, Logistic, ProbabilityModel, expected_drift

MAX_AGENTS = 12
# cap on a block's (B, 2^N) weight table, the shape of the kernel's largest
# temporaries: 2^15 float64 elements (256 KiB), so 8 instances a block at
# N = 12, as many as 16384 at N = 1
BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class RoundLaw:
    """Exact distributional summary of one round from a fixed state, for each
    instance of a block; every field has a leading axis over the instances,
    and for instance b:

    m_probs[b]              P(m = k) for k = 0..N
    expected_propensity[b]  E[q'_i] for each agent after the round
    expected_a[b]           E[mean_i p(q'_i)] one round ahead
    expected_b[b]           E[mean_i p(q'_i)(1 - p(q'_i))] one round ahead
    probs[b]                p(q_i), the entry probabilities the round used
    propensities[b]         q_i, the state the round starts from
    predicted_drift[b]      E[q'_i - q_i] in closed form, core.expected_drift
    """

    m_probs: np.ndarray
    expected_propensity: np.ndarray
    expected_a: np.ndarray
    expected_b: np.ndarray
    probs: np.ndarray
    propensities: np.ndarray
    predicted_drift: np.ndarray

    @property
    def drift(self) -> np.ndarray:
        """E[q'_i - q_i] as enumerated."""
        return self.expected_propensity - self.propensities

    @property
    def max_abs_gap(self) -> float:
        """Largest gap between the enumerated and the closed-form drift over the block."""
        return float(np.max(np.abs(self.drift - self.predicted_drift)))


def poisson_binomial_rows(probs) -> np.ndarray:
    """PMF of a sum of independent Bernoulli(p_i) for each row of a (B, N)
    array, by the convolution recurrence, as a (B, N + 1) array.

    Step i takes the counts 0..i+1 from their old values at once, which is
    the in-place recurrence pmf[k] = pmf[k] (1 - p_i) + pmf[k - 1] p_i run
    from k = i + 1 down, operation for operation.  The work runs on the
    transpose, where each count and each p_i is a contiguous row.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError("probs must be a 2-d array of nonempty rows")
    if not (p.min() >= 0 and p.max() <= 1):  # false on NaN too
        raise ValueError("probabilities must lie in [0, 1]")
    enter = np.ascontiguousarray(p.T)
    stay = 1.0 - enter
    pmf = np.zeros((p.shape[1] + 1, p.shape[0]))
    pmf[0] = 1.0
    for i in range(p.shape[1]):
        moved = pmf[: i + 1] * enter[i]
        pmf[: i + 2] *= stay[i]
        pmf[1 : i + 2] += moved
    return pmf.T


@lru_cache(maxsize=MAX_AGENTS)
def _patterns(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the 2^n patterns (bit i = agent i) sorted by entrant count m,
    their (n, 2^n) entry bits in that order, and where each m starts.
    Read-only, since every caller shares them."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    order = np.argsort(bits.sum(axis=1), kind="stable")
    tables = (order, np.ascontiguousarray(bits[order].T, dtype=bool),
              np.searchsorted(bits[order].sum(axis=1), np.arange(n + 1)))
    for table in tables:
        table.setflags(write=False)
    return tables


def blocks(instances):
    """Split (propensities, params, model) instances into blocks for enumerate_block.

    A block holds instances of one N and one rule, in the order given, and
    at most BLOCK_ELEMENTS >> N of them, which caps the block's (B, 2^N)
    weight table.
    """
    groups: dict = {}
    for instance in instances:
        params = instance[1]
        groups.setdefault((params.n_agents, params.rule), []).append(instance)
    for (n, _), group in groups.items():
        size = max(1, BLOCK_ELEMENTS >> n)
        for start in range(0, len(group), size):
            yield group[start : start + size]


def enumerate_block(instances) -> RoundLaw:
    """Exact law of one round for each of a block of (propensities, params,
    model) instances with one N and one rule, such as blocks() yields; a
    single instance is a block of one.

    The law carries core.expected_drift of the block as predicted_drift;
    the enumerated drift must reproduce it to round-off.
    """
    games = [params for _, params, _ in instances]
    if not games:
        raise ValueError("a block holds at least one instance")
    n, rule = games[0].n_agents, games[0].rule
    rows = []
    for (q, _, _), params in zip(instances, games):
        q = np.asarray(q, dtype=float)
        if q.size != params.n_agents:
            raise ValueError(f"got {q.size} propensities for n_agents={params.n_agents}")
        if (params.n_agents, params.rule) != (n, rule):
            raise ValueError("a block holds instances of one n_agents and one rule")
        rows.append(q.reshape(n))
    if n > MAX_AGENTS:
        raise ValueError(f"enumeration supports at most {MAX_AGENTS} agents, got {n}")
    h = np.array([[params.payoff_scale] for params in games])
    c = np.array([[params.capacity] for params in games])
    return _round_block(np.array(rows), h, c, rule, [model for _, _, model in instances])


def _round_block(q, h, c, rule: LearningRule, models) -> RoundLaw:
    """Exact laws of a block of instances by summing over all 2^N entry patterns.

    q'_i depends on the pattern only through e_i and m, so the sum yields the
    joint law P(m, e_i); each instance's model then sees its q and the
    (m, e) cells reached, in two calls.  P(m, e_i = 1) is summed one agent
    at a time through one scratch table, so no temporary is larger than the
    (B, 2^N) weights.  Every step acts on each row alone, so row b is bit
    for bit the law of instance b in a block of its own.
    """
    size, n = q.shape
    p = np.empty_like(q)
    for b, model in enumerate(models):
        model.prob(q[b], out=p[b])
    order, entered, starts = _patterns(n)
    # doubling: the patterns with bit i set take p_i, the others 1 - p_i
    factors = np.stack((1.0 - p, p), axis=1)
    weights = np.ones((size, 1))
    for i in range(n):
        weights = (factors[:, :, i, None] * weights[:, None, :]).reshape(size, -1)
    weights = np.take(weights, order, axis=1)
    m_probs = np.add.reduceat(weights, starts, axis=1)
    # P(m, e_i = 1), kept as the transposed view of the sums: matmul rounds
    # by memory layout, and this is the layout every result was checked in
    scratch = np.empty_like(weights)
    sums = np.empty((size, n, n + 1))
    for i in range(n):
        np.multiply(entered[i], weights, out=scratch)
        np.add.reduceat(scratch, starts, axis=1, out=sums[:, i, :])
    enter_law = sums.transpose(0, 2, 1)
    stay_law = m_probs[:, :, None] - enter_law  # P(m, e_i = 0)
    gain = h * (c - np.arange(n + 1))
    moved = q[:, None, :] + gain[:, :, None]  # q_i + h (c - m), row m
    if rule is LearningRule.BASIC_REINFORCEMENT:
        drift = gain[:, None, :] @ enter_law
        cells = moved[:, 1:]
    else:
        drift = gain[:, None, :] @ enter_law + (gain - h)[:, None, :] @ stay_law
        cells = np.concatenate((moved[:, 1:], moved[:, :-1] - h[:, :, None]), axis=1)
    p_next = np.empty_like(cells)
    for b, model in enumerate(models):
        model.prob(cells[b], out=p_next[b])
    if rule is LearningRule.BASIC_REINFORCEMENT:
        # a stay-out's propensity does not move, so neither does its p
        p_next = np.concatenate((p_next, np.broadcast_to(p[:, None, :], (size, n, n))), axis=1)
    # reachable cells: entrants at m = 1..n, then stay-outs at m = 0..n-1
    cell_law = np.concatenate((enter_law[:, 1:], stay_law[:, :-1]), axis=1).reshape(size, 1, -1)
    p_next = p_next.reshape(size, -1, 1)
    expected_a = (cell_law @ p_next)[:, 0, 0] / n
    expected_b = (cell_law @ (p_next * (1.0 - p_next)))[:, 0, 0] / n
    return RoundLaw(m_probs, q + drift[:, 0], expected_a, expected_b, p, q, expected_drift(p, h, c, rule))


def random_instance(
    rng: np.random.Generator, max_agents: int = MAX_AGENTS
) -> tuple[np.ndarray, GameParams, ProbabilityModel]:
    """One random small instance (propensities, params, model) for oracle sweeps.

    Ratio-model propensities are lifted far enough above zero that a single
    round cannot leave the model's domain.  Each draw is the value
    Generator.uniform, normal or exponential would give, by a cheaper call.
    """
    n = int(rng.integers(1, max_agents + 1))
    capacity = int(rng.integers(1, n + 1))
    h = 0.005 + (0.2 - 0.005) * rng.random()
    rule = LearningRule.BASIC_REINFORCEMENT if rng.random() < 0.5 else (
        LearningRule.FICTITIOUS_STOCHASTIC
    )
    params = GameParams(n, capacity, h, int(rng.integers(1, 1000)), rule)

    if rng.random() < 0.5:
        scale, center = 0.5 + 1.5 * rng.random(), -1.0 + 2.0 * rng.random()
        model: ProbabilityModel = Logistic(scale=scale, center=center)
        q = model.center + (2.0 * model.scale) * rng.standard_normal(n)
    else:
        model = ErevRothRatio(baseline=0.5 + 1.5 * rng.random())
        floor = h * (n + 1.0)
        q = floor + rng.standard_exponential(n)
    return q, params, model
