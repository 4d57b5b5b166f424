"""Uniform propensity grids and densities on them.

A density is stored as cell-centered values f_k on K equal cells covering
[q_min, q_max], normalized so that sum(f_k) * dq = 1.  Builders below
produce the standard initial conditions used by both engines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import Logistic, ProbabilityModel

# Nodes for Gauss-Hermite quadrature of E[g(Q)], Q standard normal.
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)
_GH_WEIGHTS = _GH_WEIGHTS / np.sqrt(np.pi)


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform cell-centered grid on [q_min, q_max]."""

    q_min: float
    q_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if not self.q_min < self.q_max:
            raise ValueError(f"need q_min < q_max, got [{self.q_min}, {self.q_max}]")
        if self.n_cells < 2:
            raise ValueError(f"need at least 2 cells, got {self.n_cells}")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.q_min + (np.arange(self.n_cells) + 0.5) * self.dq

    def interior_faces(self) -> np.ndarray:
        return self.q_min + np.arange(1, self.n_cells) * self.dq


@dataclass
class DensityGrid:
    """Cell-centered density values on a GridSpec."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.spec.n_cells,):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{self.spec.n_cells} cells"
            )

    @property
    def dq(self) -> float:
        return self.spec.dq

    def centers(self) -> np.ndarray:
        return self.spec.centers()

    def mass(self) -> float:
        return float(self.values.sum() * self.spec.dq)


def default_grid(model: Logistic, half_width_scales: float = 12.0, n_cells: int = 800) -> GridSpec:
    """Grid wide enough that p < 1e-6 at q_min and 1-p < 1e-6 at q_max."""
    half = half_width_scales * model.scale
    return GridSpec(model.center - half, model.center + half, n_cells)


def gaussian_density(spec: GridSpec, mean: float, sd: float) -> DensityGrid:
    """Normal density evaluated at cell centers and renormalized to unit mass."""
    if not sd > 0:
        raise ValueError(f"sd must be positive, got {sd}")
    q = spec.centers()
    values = np.exp(-0.5 * ((q - mean) / sd) ** 2)
    total = values.sum() * spec.dq
    if total <= 0:
        raise ValueError("gaussian mass vanished on the grid; widen the domain")
    return DensityGrid(spec, values / total)


def histogram_density(spec: GridSpec, points) -> DensityGrid:
    """Histogram density of points on the grid's cells, unit mass.

    Points are clipped to the end cell centres: points outside [q_min,
    q_max] count in the end cells, with a warning, and none is lost where
    the last edge q_min + n_cells * dq rounds below q_max.
    """
    points = np.asarray(points, dtype=float)
    outside = int(np.count_nonzero((points < spec.q_min) | (points > spec.q_max)))
    if outside:
        warnings.warn(
            f"{outside} propensities outside [{spec.q_min:g}, {spec.q_max:g}] "
            "accumulated in the end cells",
            stacklevel=2,
        )
    centers = spec.centers()
    edges = spec.q_min + np.arange(spec.n_cells + 1) * spec.dq
    counts, _ = np.histogram(np.clip(points, centers[0], centers[-1]), bins=edges)
    return DensityGrid(spec, counts / (points.size * spec.dq))


def two_spike_density(spec: GridSpec, q_low: float, q_high: float, mass_high: float) -> DensityGrid:
    """All mass in the two cells holding q_low and q_high (a sorted state).

    Each spike goes to the cell histogram_density bins it into, so a spike
    on a cell face starts in the same cell as the agent engine's snapshot.
    """
    if not 0.0 <= mass_high <= 1.0:
        raise ValueError(f"mass_high must lie in [0, 1], got {mass_high}")
    if not (spec.q_min < q_low < q_high < spec.q_max):
        raise ValueError("spike positions must be distinct interior points")
    values = np.zeros(spec.n_cells)
    k_low, k_high = (int(np.argmax(histogram_density(spec, [q]).values)) for q in (q_low, q_high))
    if k_low == k_high:
        raise ValueError("spike positions fall in the same cell; refine the grid")
    values[k_low] = (1.0 - mass_high) / spec.dq
    values[k_high] = mass_high / spec.dq
    return DensityGrid(spec, values)


def gaussian_mean_for_entry_fraction(
    model: ProbabilityModel, sd: float, target: float
) -> float:
    """Mean of a normal propensity population whose expected entry fraction is target.

    Solves E[p(Q)] = target for the mean of Q ~ Normal(mean, sd^2) by
    Gauss-Hermite quadrature and bisection; p is strictly increasing so the
    root is unique.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target entry fraction must lie in (0, 1), got {target}")
    if not sd >= 0:
        raise ValueError(f"sd must be nonnegative, got {sd}")
    offsets = np.sqrt(2.0) * sd * _GH_NODES

    def gap(mean: float) -> float:
        return float(_GH_WEIGHTS @ model.prob(mean + offsets)) - target

    if not isinstance(model, Logistic):
        raise ValueError("gaussian mean solving is supported for the logistic model only")
    span = 60.0 * model.scale + 10.0 * sd
    return brentq(gap, model.center - span, model.center + span, xtol=1e-13)
