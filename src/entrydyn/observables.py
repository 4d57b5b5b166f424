"""Time series of aggregate observables, shared by both engines.

Columns: time t, mean entry fraction a = E[p], sorting coefficient
b = E[p(1-p)], and for agent-based runs the realized entrant fraction
m/N of the round played at each record time (NaN where no round was
played, i.e. at the final record).  Ensemble series add per-time
standard errors of a and b.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
        n = np.shape(self.t)[0]
        for f in fields(self):
            col = getattr(self, f.name)
            if col is None and f.default is None:
                continue
            col = np.asarray(col, dtype=float)
            setattr(self, f.name, col)
            if col.shape != (n,):
                raise ValueError(f"column {f.name} has shape {col.shape}, expected ({n},)")
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
