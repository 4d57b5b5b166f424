"""Time series of aggregate observables, shared by both engines.

Columns: time t, mean entry fraction a = E[p], sorting coefficient
b = E[p(1-p)], and for agent-based runs the realized entrant fraction
m/N of the round played at each record time (NaN where no round was
played, i.e. at the final record).  Ensemble series add per-time
standard errors of a and b.  Both engines build their series through a
Recorder, which also takes their density snapshots.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .grid import DensityGrid

_BOUND_SLOP = 1e-9


@dataclass
class ObservableSeries:
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    m_frac: np.ndarray | None = None
    stderr_a: np.ndarray | None = None
    stderr_b: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = np.shape(self.t)[0]
        for f in fields(self):
            col = getattr(self, f.name)
            if col is None and f.default is None:
                continue
            col = np.asarray(col, dtype=float)
            setattr(self, f.name, col)
            if col.shape != (n,):
                raise ValueError(f"column {f.name} has shape {col.shape}, expected ({n},)")
            # m_frac is NaN at the final record, which plays no round
            if f.name != "m_frac" and not np.all(np.isfinite(col)):
                raise ValueError(f"column {f.name} has a non-finite value")
        if n == 0:
            raise ValueError("series must contain at least one record")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("record times must be strictly increasing")
        if np.any(self.a < -_BOUND_SLOP) or np.any(self.a > 1 + _BOUND_SLOP):
            raise ValueError("entry fraction a outside [0, 1]")
        if np.any(self.b < -_BOUND_SLOP) or np.any(self.b > 0.25 + _BOUND_SLOP):
            raise ValueError("sorting coefficient b outside [0, 1/4]")

    def __len__(self) -> int:
        return int(self.t.shape[0])


class Recorder:
    """The records (t, a, b) of one run and the density snapshots it was asked for.

    A snapshot request is taken at the first record at or after it, within
    1e-12, and at the run's last record (last=True) if it lies beyond it.
    """

    def __init__(self, snapshot_times: tuple[float, ...] = ()) -> None:
        self.rows: list[tuple[float, float, float]] = []
        self.pending = sorted(snapshot_times)
        self.snapshots: list[tuple[float, DensityGrid]] = []

    def record(self, t: float, a: float, b: float, density: Callable[[], DensityGrid], last: bool) -> None:
        """Append a record and take, from density(), every snapshot due at it."""
        self.rows.append((t, a, b))
        while self.pending and (self.pending[0] <= t + 1e-12 or last):
            self.pending.pop(0)
            self.snapshots.append((t, density()))

    def series(self, **extra_columns) -> ObservableSeries:
        t, a, b = (np.array(column) for column in zip(*self.rows))
        return ObservableSeries(t=t, a=a, b=b, **extra_columns)
