"""Shared definitions for repeated market entry games.

Each round, N agents independently choose to enter a market of capacity c
or stay out.  Entrants receive h*(c - m) on top of the outside payoff,
where m is the realized number of entrants; outsiders receive the outside
payoff alone (fixed to zero).  Every agent carries a real-valued propensity
q, mapped to an entry probability by the logistic model (Logistic), and
adjusts q between rounds according to a learning rule.  The logistic is
defined on the whole line, so the exact oracle, the agents and the
density on its grid all use the same map.

Aggregate behavior is summarized by two observables over the propensity
distribution: the mean entry fraction a = E[p] and the sorting coefficient
b = E[p(1-p)], which vanishes once every agent is committed to entering or
staying out.  Each closed form has its one home here: the one-round drift
expected_drift, the learning constant c_p, and the predicted rates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import expit

# Logistic.enters decides u < p from a fast value p~ wherever |u - p~| > _TIE
# and from the exact p elsewhere.  |p~ - p| measures at most 2.2e-16, under
# _TIE / 1000, and a uniform draw lands within _TIE of p~ with probability
# 2 * _TIE, so the exact path runs about once in 5e5 rounds at N = 10^6.
_TIE = 2.0**-40

# Agents per block of a pass over a population: a block of floats (512 KiB)
# stays in a core's cache while the block's passes run.
BLOCK_AGENTS = 2**16

# numpy sums a contiguous float array of more than _PAIRWISE_NODE items as
# the sum of its two halves, and at most that many with eight running sums.
_PAIRWISE_NODE = 128


def _pairwise_half(size: int) -> int:
    """Where numpy's pairwise summation splits a node of size items."""
    half = size // 2
    return half - half % 8


def pairwise_leaves(n: int, cap: int = BLOCK_AGENTS) -> list[tuple[int, int]]:
    """The leaves of numpy's pairwise summation of n items, as [start, stop) in order.

    np.add.reduce sums a node of more than 128 items as the sum of its
    first _pairwise_half(size) items and the rest, recursively.  A node
    here becomes a leaf once it holds at most max(cap, 128) items, so
    np.add.reduce of each leaf, combined by pairwise_fold, is
    np.add.reduce of all n items bit for bit.  The leaves tile [0, n).
    """
    cap = max(cap, _PAIRWISE_NODE)
    leaves = []

    def walk(start: int, size: int) -> None:
        if size <= cap:
            leaves.append((start, start + size))
        else:
            half = _pairwise_half(size)
            walk(start, half)
            walk(start + half, size - half)

    walk(0, n)
    return leaves


def pairwise_fold(sums, n: int, cap: int = BLOCK_AGENTS) -> float:
    """np.add.reduce of n items from np.add.reduce of each of pairwise_leaves(n, cap).

    sums holds the leaves' sums in order; they are added in numpy's own
    tree order, so the result is bit-identical to one reduction of the
    whole array, signed zeros included.
    """
    cap = max(cap, _PAIRWISE_NODE)
    leaf_sums = iter(sums)

    def walk(size: int) -> float:
        if size <= cap:
            return float(next(leaf_sums))
        half = _pairwise_half(size)
        return walk(half) + walk(size - half)

    return walk(n)


class LearningRule(enum.Enum):
    """How propensities respond to a round's payoffs.

    BASIC_REINFORCEMENT adds the realized payoff to the propensity, so
    only entrants move.  FICTITIOUS_STOCHASTIC adds the payoff entering
    would have produced, so every agent moves every round (stay-outs are
    charged for the extra entrant they would have been).
    """

    BASIC_REINFORCEMENT = "basic_reinforcement"
    FICTITIOUS_STOCHASTIC = "fictitious_stochastic"


@dataclass(frozen=True)
class GameParams:
    """Static parameters of one repeated market entry game.

    n_agents        N, number of players
    capacity        c, market capacity (integer, 0 < c <= N)
    payoff_scale    h, payoff and learning step per unit of unfilled capacity
    rounds_per_unit M, rounds per unit of model time
    rule            learning rule applied between rounds

    The outside payoff, for staying out, is fixed at 0.
    """

    n_agents: int
    capacity: int
    payoff_scale: float
    rounds_per_unit: int
    rule: LearningRule

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be positive, got {self.n_agents}")
        if not float(self.capacity).is_integer():
            raise ValueError(f"capacity must be an integer, got {self.capacity}")
        if not 0 < self.capacity <= self.n_agents:
            raise ValueError(
                f"capacity must satisfy 0 < c <= N, got c={self.capacity} N={self.n_agents}"
            )
        if not self.payoff_scale > 0:
            raise ValueError(f"payoff_scale must be positive, got {self.payoff_scale}")
        if self.rounds_per_unit < 1:
            raise ValueError(
                f"rounds_per_unit must be positive, got {self.rounds_per_unit}"
            )
        if not isinstance(self.rule, LearningRule):
            raise TypeError(f"rule must be a LearningRule, got {self.rule!r}")

    @property
    def tau(self) -> float:
        """Duration of one round in model time units."""
        return 1.0 / self.rounds_per_unit

    @property
    def kappa(self) -> float:
        """Capacity fraction c/N, the equilibrium entry fraction."""
        return self.capacity / self.n_agents

    @property
    def r(self) -> float:
        """Learning rate constant N*h*M governing aggregate relaxation."""
        return self.n_agents * self.payoff_scale * self.rounds_per_unit


@dataclass(frozen=True)
class Logistic:
    """Sigmoid propensity-to-probability map, defined on the whole line.

    p(q) = 1 / (1 + exp(-(q - center)/scale)); its derivative
    p'(q) = p(1-p)/scale is exposed because the mean-field solver needs it.
    """

    kind: ClassVar[str] = "logistic"
    scale: float = 1.0
    center: float = 0.0

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def prob(self, q, out=None):
        """Entry probability of each propensity.

        With out (a float array shaped like q) the result is computed in
        place into out and out is returned; the values are bit-identical to
        the allocating call.  A scalar q gives a numpy float.
        """
        z = np.asarray(q, dtype=float)
        if self._is_standard():
            return expit(z, out=out)
        out = Logistic.prob_rows(z, self.scale, self.center, out)
        return out if out.ndim else out[()]

    @staticmethod
    def prob_rows(q, scale, center, out=None):
        """prob of a float array q whose rows each take their own (B, 1, ...)
        scale and center, with the bytes of each row's own prob; the standard
        logistic's too, since (q - 0.0) / 1.0 is q exactly."""
        if out is None:
            out = np.empty_like(q)
        np.subtract(q, center, out=out)
        out /= scale
        return expit(out, out=out)

    def enters(self, q, u, out, work):
        """Entry decisions u < prob(q) into out (bool, q's shape), bit-identically.

        work is a float scratch array of q's shape.  The decisions are taken
        against a fast vectorised p (see _fast_prob) wherever the draw u lies
        more than _TIE from it, and against prob() for the rest.
        """
        self._fast_prob(q, out=work)
        np.less(u, work, out=out)
        np.subtract(u, work, out=work)
        np.abs(work, out=work)
        # |u - p~| rounds monotonically, so a value above _TIE certifies the
        # decision; fmin skips the NaN of a NaN propensity, which compares
        # False on both paths, so it cannot hide another agent's near-tie
        if np.fmin.reduce(work) <= _TIE:
            near = np.flatnonzero(work <= _TIE)
            out[near] = u[near] < self.prob(q[near])
        return out

    def _fast_prob(self, q, out):
        """prob(q) into out through numpy's SIMD exp, within _TIE / 1000 of prob(q).

        The argument of the logistic is formed exactly as prob forms it
        ((center - q) / scale is -((q - center) / scale) in IEEE
        arithmetic); only exp and the division differ from scipy's expit.
        """
        if self._is_standard():
            np.negative(q, out=out)
        else:
            np.subtract(self.center, q, out=out)
            out /= self.scale
        with np.errstate(over="ignore"):
            # exp overflows to inf above 709.78, and 1 / (1 + inf) = 0
            np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)

    def _is_standard(self) -> bool:
        # (q - 0.0) / 1.0 == q exactly, so the affine step can be skipped
        return self.center == 0.0 and self.scale == 1.0

    def dprob(self, q, p=None):
        """p'(q); p, when given, must be prob(q) and saves evaluating it again."""
        if p is None:
            p = self.prob(q)
        return p * (1.0 - p) / self.scale


# benchmark/layers.py reads this name until ROADMAP item 16 deletes its
# tracer, which skips a target without `prob`; it is not a model
ErevRothRatio = None


@dataclass(frozen=True)
class TimeScales:
    """Predicted e-folding times of the two relaxation stages.

    aggregate_learning  1/r: decay of the entry-fraction gap |a - kappa|
    sorting             2/(r*h): decay of the sorting coefficient b
    separation          2/h: sorting over aggregate_learning
    """

    aggregate_learning: float
    sorting: float
    separation: float


def predicted_time_scales(params: GameParams) -> TimeScales:
    r = params.r
    return TimeScales(
        aggregate_learning=1.0 / r,
        sorting=2.0 / (r * params.payoff_scale),
        separation=2.0 / params.payoff_scale,
    )


def expected_drift(p, h, c, rule: LearningRule):
    """E[q'_i - q_i] over one round in closed form, with S = sum_j p_j over p's last axis:
      basic reinforcement   E[dq_i] = h p_i (c - 1 - (S - p_i))
      fictitious play       E[dq_i] = h (c - S) - h (1 - p_i)
    (condition on agent i's own decision).  h and c broadcast against p, as
    (B, 1) columns for B instances; the oracle checks the enumerated round.
    """
    total = p.sum(axis=-1, keepdims=True)
    if rule is LearningRule.BASIC_REINFORCEMENT:
        return h * p * (c - 1.0 - (total - p))
    return h * (c - total) - h * (1.0 - p)


def learning_constant(q, model: Logistic, rule: LearningRule, weights=None) -> float:
    """The rule's c_p = E[w p'(q)], w = p(q) under basic reinforcement and 1
    under fictitious play, over propensities q: their mean, or their sum
    against weights (a density's cell masses, with q its cell centres).

    The mean forms its terms one leaf of pairwise_leaves(q.size) at a
    time in one leaf-sized buffer and folds the leaves' sums, so it holds
    no array of q's size and equals np.mean of all the terms bit for bit.
    """
    q = np.asarray(q, dtype=float)
    if weights is not None:
        return float(_rule_terms(q, model.prob(q), model, rule) @ weights)
    leaves = pairwise_leaves(q.size)
    buffer = np.empty(max(j - i for i, j in leaves))
    sums = [
        np.add.reduce(_rule_terms(q[i:j], model.prob(q[i:j], out=buffer[: j - i]), model, rule))
        for i, j in leaves
    ]
    return pairwise_fold(sums, q.size) / q.size


def _rule_terms(q, p, model: Logistic, rule: LearningRule):
    """p, which holds p(q), overwritten with learning_constant's terms w p'(q)."""
    if rule is LearningRule.BASIC_REINFORCEMENT:
        p *= model.dprob(q, p)
    else:
        p[...] = model.dprob(q, p)
    return p


def aggregate_learning_rate(params: GameParams, learning_constant: float) -> float:
    """Predicted decay rate c_p * r of |a - kappa|, c_p the rule's learning_constant at the start."""
    return learning_constant * params.r


def sorting_rate(params: GameParams) -> float:
    """Predicted decay rate r*h/2 of the sorting coefficient b."""
    return params.r * params.payoff_scale / 2.0
