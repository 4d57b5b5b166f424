"""Uniform propensity grids and densities on them.

A density is stored as cell-centered values f_k on K equal cells covering
[q_min, q_max], normalized so that sum(f_k) * dq = 1.  The start types
in `abm` realize themselves on a grid; this module holds the histogram
they and the agent engine's snapshots share.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BLOCK_AGENTS, Logistic


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
        if not 0 < self.dq < math.inf:
            raise ValueError(f"need a finite, positive cell width, got dq = {self.dq}")

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


def default_grid(model: Logistic) -> GridSpec:
    """800 cells over 12 scales either side of the center, where p and 1 - p fall below 1e-5."""
    half = 12.0 * model.scale
    return GridSpec(model.center - half, model.center + half, 800)


def histogram_density(spec: GridSpec, points) -> DensityGrid:
    """Histogram density of points on the grid's cells, unit mass.

    Points are clipped to the end cell centres: points outside [q_min,
    q_max] count in the end cells, with a warning, and none is lost where
    the last edge q_min + n_cells * dq rounds below q_max.  The points
    are clipped and binned a block at a time and the integer counts summed,
    so no temporary is larger than a block.
    """
    points = np.asarray(points, dtype=float)
    centers = spec.centers()
    edges = spec.q_min + np.arange(spec.n_cells + 1) * spec.dq
    counts = np.zeros(spec.n_cells, dtype=np.intp)
    outside = 0
    for i in range(0, points.size, BLOCK_AGENTS):
        block = points[i : i + BLOCK_AGENTS]
        outside += int(np.count_nonzero((block < spec.q_min) | (block > spec.q_max)))
        counts += np.histogram(np.clip(block, centers[0], centers[-1]), bins=edges)[0]
    if outside:
        warnings.warn(
            f"{outside} propensities outside [{spec.q_min:g}, {spec.q_max:g}] "
            "accumulated in the end cells",
            stacklevel=2,
        )
    return DensityGrid(spec, counts / (points.size * spec.dq))
