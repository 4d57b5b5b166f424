"""Exact one-round reference laws for small populations.

For N <= 12 agents the 2^N entry patterns are enumerated outright, giving
the exact law of the entrant count m, the exact expected post-round
propensities, and the exact expected observables one round ahead.  The
entrant-count law is independently reproducible through the standard
Poisson-binomial convolution recurrence, and the expected propensity drift
has a closed form in the entry probabilities; both serve as cross-checks
on any simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ErevRothRatio,
    GameParams,
    LearningRule,
    Logistic,
    ProbabilityModel,
)

__all__ = [
    "MAX_AGENTS",
    "DriftCheck",
    "RoundLaw",
    "enumerate_round",
    "expected_drift_check",
    "poisson_binomial_pmf",
    "random_instance",
]

MAX_AGENTS = 12


@dataclass(frozen=True)
class RoundLaw:
    """Exact distributional summary of one round from a fixed state.

    m_probs              P(m = k) for k = 0..N
    expected_propensity  E[q'_i] for each agent after the round
    expected_a           E[mean_i p(q'_i)] one round ahead
    expected_b           E[mean_i p(q'_i)(1 - p(q'_i))] one round ahead
    """

    m_probs: np.ndarray
    expected_propensity: np.ndarray
    expected_a: float
    expected_b: float


@dataclass(frozen=True)
class DriftCheck:
    """Enumerated versus closed-form expected propensity change.

    law is the enumerated round the check was computed from.
    """

    enumerated: np.ndarray
    predicted: np.ndarray
    law: RoundLaw

    @property
    def max_abs_gap(self) -> float:
        return float(np.max(np.abs(self.enumerated - self.predicted)))


def poisson_binomial_pmf(probs) -> np.ndarray:
    """PMF of a sum of independent Bernoulli(p_i) via the convolution recurrence."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a nonempty 1-d array")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for pi in p:
        pmf[1:] = pmf[1:] * (1.0 - pi) + pmf[:-1] * pi
        pmf[0] *= 1.0 - pi
    return pmf


def _pattern_table(n: int) -> np.ndarray:
    codes = np.arange(2**n, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(float)


def enumerate_round(
    propensities, params: GameParams, model: ProbabilityModel
) -> RoundLaw:
    """Exact law of one round by summing over all 2^N entry patterns."""
    q = np.asarray(propensities, dtype=float)
    n = q.size
    if n != params.n_agents:
        raise ValueError(f"got {n} propensities for n_agents={params.n_agents}")
    if n > MAX_AGENTS:
        raise ValueError(f"enumeration supports at most {MAX_AGENTS} agents, got {n}")

    p = np.atleast_1d(model.prob(q))
    patterns = _pattern_table(n)
    weights = np.prod(np.where(patterns > 0, p, 1.0 - p), axis=1)
    m = patterns.sum(axis=1)
    m_probs = np.bincount(m.astype(int), weights=weights, minlength=n + 1)

    h = params.payoff_scale
    gain = h * (params.capacity - m)
    if params.rule is LearningRule.BASIC_REINFORCEMENT:
        q_next = q[None, :] + gain[:, None] * patterns
    else:
        q_next = q[None, :] + gain[:, None] - h * (1.0 - patterns)
    expected_propensity = weights @ q_next

    p_next = model.prob(q_next)
    expected_a = float(weights @ p_next.mean(axis=1))
    expected_b = float(weights @ (p_next * (1.0 - p_next)).mean(axis=1))
    return RoundLaw(m_probs, expected_propensity, expected_a, expected_b)


def expected_drift_check(
    propensities, params: GameParams, model: ProbabilityModel
) -> DriftCheck:
    """Expected one-round propensity change, enumerated and in closed form.

    Conditioning on agent i's own decision gives exact expressions in the
    entry probabilities (S = sum_j p_j):
      basic reinforcement   E[dq_i] = h p_i (c - 1 - (S - p_i))
      fictitious play       E[dq_i] = h (c - S) - h (1 - p_i)
    The enumeration must reproduce them to round-off.
    """
    q = np.asarray(propensities, dtype=float)
    law = enumerate_round(q, params, model)
    enumerated = law.expected_propensity - q

    p = np.atleast_1d(model.prob(q))
    h = params.payoff_scale
    c = params.capacity
    total = p.sum()
    if params.rule is LearningRule.BASIC_REINFORCEMENT:
        predicted = h * p * (c - 1.0 - (total - p))
    else:
        predicted = h * (c - total) - h * (1.0 - p)
    return DriftCheck(enumerated, np.broadcast_to(predicted, q.shape).copy(), law)


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
        model: ProbabilityModel = Logistic(
            scale=float(rng.uniform(0.5, 2.0)), center=float(rng.uniform(-1.0, 1.0))
        )
        q = rng.normal(model.center, 2.0 * model.scale, size=n)
    else:
        model = ErevRothRatio(baseline=float(rng.uniform(0.5, 2.0)))
        floor = h * (n + 1.0)
        q = floor + rng.exponential(1.0, size=n)
    return q, params, model
