"""Shared definitions for repeated market entry games.

Each round, N agents independently choose to enter a market of capacity c
or stay out.  Entrants receive h*(c - m) on top of the outside payoff,
where m is the realized number of entrants; outsiders receive the outside
payoff alone (fixed to zero).  Every agent carries a real-valued propensity
q, mapped to an entry probability by a probability model, and adjusts q
between rounds according to a learning rule.

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


class DomainError(ValueError):
    """A propensity left the domain of the active probability model."""


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
        if out is None:
            out = np.empty_like(z)
        np.subtract(z, self.center, out=out)
        out /= self.scale
        expit(out, out=out)
        return out if out.ndim else out[()]

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


@dataclass(frozen=True)
class ErevRothRatio:
    """Ratio map p(q) = q / (q + baseline), defined for q >= 0 only.

    Negative propensities are a hard domain error; callers must not clamp.
    """

    kind: ClassVar[str] = "erev_roth_ratio"
    baseline: float = 1.0

    def __post_init__(self) -> None:
        if not self.baseline > 0:
            raise ValueError(f"baseline must be positive, got {self.baseline}")

    def prob(self, q, out=None):
        """Entry probability of each propensity.

        With out (a float array shaped like q) the result is computed in
        place into out and out is returned; the values are bit-identical to
        the allocating call.  Raises DomainError on a negative propensity.
        """
        arr = _nonnegative(q)
        return np.divide(arr, np.add(arr, self.baseline, out=out), out=out)

    def enters(self, q, u, out, work):
        """Entry decisions u < prob(q) into out (bool), using work (float) as scratch."""
        return np.less(u, self.prob(q, out=work), out=out)

    def dprob(self, q, p=None):
        """p'(q); p is accepted for the common signature and not needed."""
        # the quotient overwrites the square, so an array q costs one temporary
        square = (_nonnegative(q) + self.baseline) ** 2
        return np.divide(self.baseline, square, out=square if square.ndim else None)


def _nonnegative(q) -> np.ndarray:
    """q as a float array, or DomainError if any entry is negative."""
    arr = np.asarray(q, dtype=float)
    # a reduction allocates no array of q's size; fmin skips NaN, as `< 0` does
    if np.fmin.reduce(arr, axis=None, initial=np.inf) < 0:
        raise DomainError(
            "ratio probability model requires nonnegative propensities, "
            f"got minimum {arr.min():g}"
        )
    return arr


ProbabilityModel = Logistic | ErevRothRatio


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


def learning_constant(q, model: ProbabilityModel, rule: LearningRule, weights=None) -> float:
    """The rule's c_p = E[w p'(q)], w = p(q) under basic reinforcement and 1
    under fictitious play, over propensities q: their mean, or their sum
    against weights (a density's cell masses, with q its cell centres).

    The terms overwrite one float array of p(q) a block at a time, so they
    cost one float per entry of q, and a DomainError names the minimum
    over all of q.
    """
    q = np.asarray(q, dtype=float)
    terms = model.prob(q, out=np.empty_like(q))
    for i in range(0, q.size, BLOCK_AGENTS):
        block = terms[i : i + BLOCK_AGENTS]
        if rule is LearningRule.BASIC_REINFORCEMENT:
            block *= model.dprob(q[i : i + BLOCK_AGENTS], block)
        else:
            block[...] = model.dprob(q[i : i + BLOCK_AGENTS], block)
    return float(np.mean(terms)) if weights is None else float(terms @ weights)


def aggregate_learning_rate(params: GameParams, learning_constant: float) -> float:
    """Predicted decay rate c_p * r of |a - kappa|, c_p the rule's learning_constant at the start."""
    return learning_constant * params.r


def sorting_rate(params: GameParams) -> float:
    """Predicted decay rate r*h/2 of the sorting coefficient b."""
    return params.r * params.payoff_scale / 2.0
