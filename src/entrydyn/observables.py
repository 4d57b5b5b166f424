"""Time series of aggregate observables, shared by both engines.

Columns: time t, mean entry fraction a = E[p], sorting coefficient
b = E[p(1-p)], and for agent-based runs the realized entrant fraction
m/N of the round played at each record time (NaN where no round was
played, i.e. at the final record).  Ensemble series add per-time
standard errors of a and b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        self.t = np.asarray(self.t, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        n = self.t.shape[0]
        for name in ("a", "b", "m_frac", "stderr_a", "stderr_b"):
            col = getattr(self, name)
            if col is None:
                continue
            col = np.asarray(col, dtype=float)
            setattr(self, name, col)
            if col.shape != (n,):
                raise ValueError(f"column {name} has shape {col.shape}, expected ({n},)")
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
