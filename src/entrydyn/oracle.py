"""Exact one-round reference laws for small populations.

For N <= 12 agents the 2^N entry patterns are enumerated outright, giving
the exact law of the entrant count m and the joint law of m and each
agent's own decision, hence the exact expected drift E[q' - q] (E[q'] is q
plus it) and observables one round ahead.  The entrant-count law is
independently reproducible through the Poisson-binomial convolution
recurrence (poisson_binomial_rows), and the drift has a closed form,
core.expected_drift; both serve as cross-checks on any simulation engine,
and this module only enumerates.  Instances travel as columns (Instances):
random_instance draws a chunk, blocks() splits it into blocks of one N and
one rule, and enumerate_block, the one entry point, returns one RoundLaw
per block whose fields stack the instances along a leading axis.  The
kernel works row by row, with one model call per block, so a sweep pays
numpy's per-call cost once per block, not per instance.  P(m, e_i = 1) takes
one contraction per entrant count m, N + 1 calls a block, by np.einsum
rather than matmul: BLAS rounds a one-row product and a many-row product of
the same data differently, and each row must not depend on its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import LearningRule, Logistic, expected_drift

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

    m_probs[b]          P(m = k) for k = 0..N
    drift[b]            E[q'_i - q_i] as enumerated; E[q'_i] is q_i + drift[b, i]
    expected_a[b]       E[mean_i p(q'_i)] one round ahead
    expected_b[b]       E[mean_i p(q'_i)(1 - p(q'_i))] one round ahead
    probs[b]            p(q_i), the entry probabilities the round used
    predicted_drift[b]  E[q'_i - q_i] in closed form, core.expected_drift
    """

    m_probs: np.ndarray
    drift: np.ndarray
    expected_a: np.ndarray
    expected_b: np.ndarray
    probs: np.ndarray
    predicted_drift: np.ndarray

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


@dataclass(eq=False)
class Instances:
    """Instances as columns, row b for instance b: N, c, h, the rule (True for
    fictitious play), its Logistic's scale and center, and the propensities,
    whose columns past N are unused."""

    n_agents: np.ndarray
    capacity: np.ndarray
    payoff_scale: np.ndarray
    fictitious: np.ndarray
    scale: np.ndarray
    center: np.ndarray
    propensities: np.ndarray

    def __len__(self) -> int:
        return self.n_agents.size

    @classmethod
    def stack(cls, instances) -> Instances:
        """(propensities, params, model) instances of one N as rows."""
        rows = []
        for q, params, model in instances:
            q = np.asarray(q, dtype=float).ravel()
            if q.size != params.n_agents:
                raise ValueError(f"got {q.size} propensities for n_agents={params.n_agents}")
            fictitious = params.rule is LearningRule.FICTITIOUS_STOCHASTIC
            rows.append((q.size, params.capacity, params.payoff_scale, fictitious, model.scale, model.center, q))
        if len({row[0] for row in rows}) > 1:
            raise ValueError("a block holds instances of one n_agents and one rule")
        return cls(*map(np.array, zip(*rows)))

    def take(self, rows) -> Instances:
        """The instances at rows, which share one N, with N columns of propensities: a block."""
        *columns, q = vars(self).values()
        return Instances(*(column[rows] for column in columns), q[rows, : self.n_agents[rows[0]]])

    def prob(self, points) -> np.ndarray:
        """p of a (B, ...) array, row b under instance b's Logistic, in one call."""
        column = (-1,) + (1,) * (points.ndim - 1)
        return Logistic.prob_rows(points, self.scale.reshape(column), self.center.reshape(column))


def blocks(chunk: Instances):
    """Split a chunk into blocks for enumerate_block, yielding each block's row
    indices, chunk.take(rows) the block: rows of one N and one rule in drawn
    order, at most BLOCK_ELEMENTS >> N of them, which caps the block's (B, 2^N)
    weight table; (N, rule) pairs in order of first appearance."""
    key = 2 * chunk.n_agents + chunk.fictitious
    for first in np.sort(np.unique(key, return_index=True)[1]):
        rows = np.flatnonzero(key == key[first])
        size = max(1, BLOCK_ELEMENTS >> int(chunk.n_agents[first]))
        for start in range(0, rows.size, size):
            yield rows[start : start + size]


def enumerate_block(instances) -> RoundLaw:
    """Exact law of one round for each instance of a block with one N and one
    rule: a chunk.take(rows) of blocks(), or (propensities, params, model)
    instances, which are stacked; a single instance is a block of one.  The
    law carries core.expected_drift as predicted_drift, which the enumerated
    drift must reproduce to round-off."""
    if not len(instances):
        raise ValueError("a block holds at least one instance")
    block = instances if isinstance(instances, Instances) else Instances.stack(instances)
    n = block.propensities.shape[1]
    if np.any(block.n_agents != n) or np.any(block.fictitious != block.fictitious[0]):
        raise ValueError("a block holds instances of one n_agents and one rule")
    if n > MAX_AGENTS:
        raise ValueError(f"enumeration supports at most {MAX_AGENTS} agents, got {n}")
    return _round_block(block)


def _round_block(block: Instances) -> RoundLaw:
    """Exact laws of a block of instances by summing over all 2^N entry patterns.

    q'_i depends on the pattern only through e_i and m, so the sum yields the
    joint law P(m, e_i).  Every propensity the round touches, q and the
    (m, e) cells reached, is formed first, so the block's models are
    evaluated in one call.  With the patterns sorted by m, P(m, e_i = 1) is
    one contraction per m of that group's weights with its entry bits, by
    einsum without optimize, which sums each row on its own; matmul would
    hand the block to BLAS, whose rounding depends on the number of rows.  Each
    group's bits are cast to float as used, so no temporary is larger than
    the (B, 2^N) weights.  Every step acts on each row alone, so row b is
    bit for bit the law of instance b in a block of its own.
    """
    q, h, c = block.propensities, block.payoff_scale[:, None], block.capacity[:, None]
    rule = LearningRule.FICTITIOUS_STOCHASTIC if block.fictitious[0] else LearningRule.BASIC_REINFORCEMENT
    size, n = q.shape
    gain = h * (c - np.arange(n + 1))
    moved = q[:, None, :] + gain[:, :, None]  # q_i + h (c - m), row m
    if rule is LearningRule.BASIC_REINFORCEMENT:
        # a stay-out's propensity does not move
        stay = np.broadcast_to(q[:, None, :], (size, n, n))
    else:
        stay = moved[:, :-1] - h[:, :, None]
    # q, then the reachable cells: entrants at m = 1..n, stay-outs at m = 0..n-1
    probs = block.prob(np.concatenate((q[:, None, :], moved[:, 1:], stay), axis=1))
    del moved, stay  # freed before the (B, 2^N) tables, which set the peak
    p, p_next = probs[:, 0], probs[:, 1:]
    order, entered, starts = _patterns(n)
    # doubling: the patterns with bit i set take p_i, the others 1 - p_i
    factors = np.stack((1.0 - p, p), axis=1)
    weights = np.ones((size, 1))
    for i in range(n):
        weights = (factors[:, :, i, None] * weights[:, None, :]).reshape(size, -1)
    weights = np.take(weights, order, axis=1)
    m_probs = np.add.reduceat(weights, starts, axis=1)
    # P(m, e_i = 1), row m, in the C-contiguous layout the @ products below
    # read: matmul rounds by memory layout, and the tests check this one
    enter_law = np.empty((size, n + 1, n))
    for m, (start, end) in enumerate(zip(starts, (*starts[1:], 2**n))):
        np.einsum("bj,ij->bi", weights[:, start:end], entered[:, start:end].astype(float),
                  out=enter_law[:, m], optimize=False)
    del weights
    stay_law = m_probs[:, :, None] - enter_law  # P(m, e_i = 0)
    drift = gain[:, None, :] @ enter_law
    if rule is LearningRule.FICTITIOUS_STOCHASTIC:
        drift += (gain - h)[:, None, :] @ stay_law
    cell_law = np.concatenate((enter_law[:, 1:], stay_law[:, :-1]), axis=1).reshape(size, 1, -1)
    p_next = p_next.reshape(size, -1, 1)
    expected_a = (cell_law @ p_next)[:, 0, 0] / n
    expected_b = (cell_law @ (p_next * (1.0 - p_next)))[:, 0, 0] / n
    return RoundLaw(m_probs, drift[:, 0], expected_a, expected_b, p, expected_drift(p, h, c, rule))


def random_instance(rng: np.random.Generator, max_agents: int, count: int) -> Instances:
    """A chunk of count random instances in four Generator calls, whatever count
    is.  Row b draws N on 1..max_agents, c on 1..N, h on [0.005, 0.2), the rule
    at even odds, a Logistic's scale on [0.5, 2) and center on [-1, 1), and
    normal propensities of sd twice the scale about the center.  Each value is
    the one Generator.integers, uniform or normal gives with size=."""
    n = rng.integers(1, max_agents + 1, size=count)
    capacity = rng.integers(1, n + 1, size=count)
    u = rng.random((count, 4))
    h, scale, center = 0.005 + (0.2 - 0.005) * u[:, 0], 0.5 + 1.5 * u[:, 2], -1.0 + 2.0 * u[:, 3]
    q = center[:, None] + (2.0 * scale)[:, None] * rng.standard_normal((count, max_agents))
    return Instances(n, capacity, h, u[:, 1] >= 0.5, scale, center, q)
