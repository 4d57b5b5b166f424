"""Exact one-round reference laws for small populations.

For N <= 12 agents the 2^N entry patterns are enumerated outright, giving
the exact law of the entrant count m and the joint law of m and each
agent's own decision, hence the exact expected post-round propensities and
observables one round ahead.  The entrant-count law is independently
reproducible through the Poisson-binomial convolution recurrence, and the
expected propensity drift has a closed form in the entry probabilities;
both serve as cross-checks on any simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ErevRothRatio, GameParams, LearningRule, Logistic, ProbabilityModel

__all__ = [
    "MAX_AGENTS", "DriftCheck", "RoundLaw", "enumerate_round",
    "expected_drift_check", "poisson_binomial_pmf", "random_instance",
]

MAX_AGENTS = 12


@dataclass(frozen=True)
class RoundLaw:
    """Exact distributional summary of one round from a fixed state.

    m_probs              P(m = k) for k = 0..N
    expected_propensity  E[q'_i] for each agent after the round
    expected_a           E[mean_i p(q'_i)] one round ahead
    expected_b           E[mean_i p(q'_i)(1 - p(q'_i))] one round ahead
    probs                p(q_i), the entry probabilities the round used
    """

    m_probs: np.ndarray
    expected_propensity: np.ndarray
    expected_a: float
    expected_b: float
    probs: np.ndarray


@dataclass(frozen=True)
class DriftCheck:
    """Enumerated versus closed-form expected propensity change, and the enumerated law."""

    enumerated: np.ndarray
    predicted: np.ndarray
    law: RoundLaw

    @property
    def max_abs_gap(self) -> float:
        return float(np.max(np.abs(self.enumerated - self.predicted)))


def poisson_binomial_pmf(probs) -> np.ndarray:
    """PMF of a sum of independent Bernoulli(p_i) via the convolution recurrence.

    Plain Python, cheaper than numpy calls at N <= 12 and bit-identical to them.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a nonempty 1-d array")
    if not (p.min() >= 0 and p.max() <= 1):  # false on NaN too
        raise ValueError("probabilities must lie in [0, 1]")
    pmf = [1.0] + [0.0] * p.size
    for i, pi in enumerate(p.tolist()):
        stay = 1.0 - pi
        for k in range(i + 1, 0, -1):
            pmf[k] = pmf[k] * stay + pmf[k - 1] * pi
        pmf[0] *= stay
    return np.array(pmf)


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


def enumerate_round(propensities, params: GameParams, model: ProbabilityModel) -> RoundLaw:
    """Exact law of one round by summing over all 2^N entry patterns.

    q'_i depends on the pattern only through e_i and m, so the sum yields the
    joint law P(m, e_i); the model then sees q and the (m, e) cells reached.
    """
    q = np.asarray(propensities, dtype=float)
    n = q.size
    if n != params.n_agents:
        raise ValueError(f"got {n} propensities for n_agents={params.n_agents}")
    if n > MAX_AGENTS:
        raise ValueError(f"enumeration supports at most {MAX_AGENTS} agents, got {n}")
    p = np.atleast_1d(model.prob(q))
    order, entered, starts = _patterns(n)
    weights = np.ones(1)
    for pi in p.tolist():
        weights = np.concatenate((weights * (1.0 - pi), weights * pi))
    weights = weights[order]
    m_probs = np.add.reduceat(weights, starts)
    enter_law = np.add.reduceat(entered * weights, starts, axis=1).T  # P(m, e_i = 1)
    stay_law = m_probs[:, None] - enter_law  # P(m, e_i = 0)
    h = params.payoff_scale
    gain = h * (params.capacity - np.arange(n + 1))
    moved = q + gain[:, None]  # q_i + h (c - m), row m
    if params.rule is LearningRule.BASIC_REINFORCEMENT:
        drift = gain @ enter_law
        p_next = np.concatenate((model.prob(moved[1:]), p[None, :].repeat(n, axis=0)))
    else:
        drift = gain @ enter_law + (gain - h) @ stay_law
        p_next = model.prob(np.concatenate((moved[1:], moved[:-1] - h)))
    # reachable cells: entrants at m = 1..n, then stay-outs at m = 0..n-1
    cell_law = np.concatenate((enter_law[1:], stay_law[:-1]))
    expected_a = float(np.vdot(cell_law, p_next)) / n
    expected_b = float(np.vdot(cell_law, p_next * (1.0 - p_next))) / n
    return RoundLaw(m_probs, q + drift, expected_a, expected_b, p)


def expected_drift_check(propensities, params: GameParams, model: ProbabilityModel) -> DriftCheck:
    """Expected one-round propensity change, enumerated and in closed form.

    Conditioning on agent i's own decision gives exact expressions in the
    entry probabilities (S = sum_j p_j):
      basic reinforcement   E[dq_i] = h p_i (c - 1 - (S - p_i))
      fictitious play       E[dq_i] = h (c - S) - h (1 - p_i)
    The enumeration must reproduce them to round-off.
    """
    q = np.asarray(propensities, dtype=float)
    law = enumerate_round(q, params, model)
    p, h, c = law.probs, params.payoff_scale, params.capacity
    if params.rule is LearningRule.BASIC_REINFORCEMENT:
        predicted = h * p * (c - 1.0 - (p.sum() - p))
    else:
        predicted = h * (c - p.sum()) - h * (1.0 - p)
    return DriftCheck(law.expected_propensity - q, predicted, law)


def random_instance(
    rng: np.random.Generator, max_agents: int = MAX_AGENTS
) -> tuple[np.ndarray, GameParams, ProbabilityModel]:
    """One random small instance (propensities, params, model) for oracle sweeps.

    Ratio-model propensities are lifted far enough above zero that a single
    round cannot leave the model's domain.
    """
    n = int(rng.integers(1, max_agents + 1))
    capacity = int(rng.integers(1, n + 1))
    h = float(rng.uniform(0.005, 0.2))
    rule = LearningRule.BASIC_REINFORCEMENT if rng.random() < 0.5 else (
        LearningRule.FICTITIOUS_STOCHASTIC
    )
    params = GameParams(n, capacity, h, int(rng.integers(1, 1000)), rule)

    if rng.random() < 0.5:
        scale, center = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
        model: ProbabilityModel = Logistic(scale=scale, center=center)
        q = rng.normal(model.center, 2.0 * model.scale, size=n)
    else:
        model = ErevRothRatio(baseline=float(rng.uniform(0.5, 2.0)))
        floor = h * (n + 1.0)
        q = floor + rng.exponential(1.0, size=n)
    return q, params, model
