"""Decay-rate measurement and cross-engine series comparison.

Relaxation toward the capacity equilibrium happens in two stages with well
separated time scales: the entry-fraction gap |a - kappa| closes first
(aggregate learning), then the sorting coefficient b = E[p(1-p)] decays as
agents commit.  Rates are measured by least squares on the log of the gap,
windowed to the part of the series where the signal is clean.  This module
measures and holds the acceptance bands; `entrydyn analyze` compares each
fitted rate with core's predictions c_p * r and r*h/2, with c_p the rule's
core.learning_constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GameParams, sorting_rate
from .observables import ObservableSeries

MIN_FIT_POINTS = 5
# fractions of the starting gap that open and close the learning window
WINDOW_UPPER = 0.8
WINDOW_LOWER = 0.2
# the acceptance bands: a fitted rate within a factor of its prediction, the
# sorting window opened at this fraction of the starting |a - kappa|, and the
# least fitted ratio of the sorting time to the learning time
RATE_FACTOR = 2.0
SORTING_EPSILON = 0.05
MIN_SEPARATION = 20.0


class FitError(ValueError):
    """A decay fit could not be performed on the given series."""


@dataclass(frozen=True)
class DecayFit:
    """Result of a log-linear exponential-decay fit |x - x_inf| ~ A e^{-rate t}."""

    rate: float
    log_amplitude: float
    r_squared: float
    window: tuple[float, float]
    n_points: int

    @property
    def tau(self) -> float:
        return 1.0 / self.rate


def fit_exponential_decay(t, x, x_inf: float, window: tuple[float, float]) -> DecayFit:
    """Least-squares slope of log|x - x_inf| over the window.

    Raises FitError when fewer than MIN_FIT_POINTS records fall in the
    window, when the gap vanishes (log undefined), or when the fitted rate
    is not positive (the signal grows instead of decaying).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t_lo, t_hi = window
    mask = (t >= t_lo - 1e-12) & (t <= t_hi + 1e-12)
    n = int(np.count_nonzero(mask))
    if n < MIN_FIT_POINTS:
        raise FitError(
            f"only {n} records in window [{t_lo:g}, {t_hi:g}]; "
            f"need at least {MIN_FIT_POINTS}"
        )
    tw = t[mask]
    gap = np.abs(x[mask] - x_inf)
    if np.any(gap <= 0):
        raise FitError("gap |x - x_inf| vanishes inside the fit window")
    y = np.log(gap)
    slope, intercept = np.polyfit(tw, y, 1)
    rate = -float(slope)
    if rate <= 0:
        raise FitError(f"fitted rate {rate:g} is not positive; signal is not decaying")
    resid = y - (slope * tw + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(
        rate=rate,
        log_amplitude=float(intercept),
        r_squared=r_squared,
        window=(float(t_lo), float(t_hi)),
        n_points=n,
    )


def learning_window(t, x, x_inf: float) -> tuple[float, float]:
    """Window where the gap sits between WINDOW_UPPER and WINDOW_LOWER of its start.

    Skips the earliest records (transients not yet in the exponential regime)
    and the late floor where noise dominates.
    """
    t = np.asarray(t, dtype=float)
    gap = np.abs(np.asarray(x, dtype=float) - x_inf)
    if gap[0] <= 0:
        raise FitError("series starts exactly at the asymptote; nothing to fit")
    below_hi = np.nonzero(gap <= WINDOW_UPPER * gap[0])[0]
    below_lo = np.nonzero(gap <= WINDOW_LOWER * gap[0])[0]
    if below_hi.size == 0 or below_lo.size == 0:
        raise FitError(
            f"gap never fell below {WINDOW_LOWER:.0%} of its initial value; "
            "extend the run before fitting"
        )
    return float(t[below_hi[0]]), float(t[below_lo[0]])


def aggregate_learning_fit(series: ObservableSeries, params: GameParams) -> DecayFit:
    """Fitted decay rate of |a - kappa| over the learning window."""
    window = learning_window(series.t, series.a, params.kappa)
    return fit_exponential_decay(series.t, series.a, params.kappa, window)


def sorting_fit(series: ObservableSeries, params: GameParams, epsilon: float = SORTING_EPSILON) -> DecayFit:
    """Fitted decay rate of b on the post-learning window.

    The window opens at the first record where |a - kappa| has fallen below
    epsilon of its initial value (immediately, for a series that starts at
    the equilibrium entry fraction) and runs to the end of the series.
    """
    t = series.t
    gap = np.abs(series.a - params.kappa)
    if gap[0] <= 1e-15:
        t_open = float(t[0])
    else:
        crossed = np.nonzero(gap < epsilon * gap[0])[0]
        if crossed.size == 0:
            needed = 3.0 / sorting_rate(params)
            raise FitError(
                "aggregate learning never completed within the series "
                f"(|a - kappa| stayed above {epsilon:.0%} of its start); "
                f"run to t_end of about {needed:g} to observe sorting"
            )
        t_open = float(t[crossed[0]])
    return fit_exponential_decay(t, series.b, 0.0, (t_open, float(t[-1])))


def within_factor(rate: float, predicted: float, factor: float = RATE_FACTOR) -> bool:
    """True when rate lies in [predicted/factor, predicted*factor]."""
    if not factor >= 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return predicted / factor <= rate <= predicted * factor


@dataclass(frozen=True)
class ComparisonResult:
    """Pointwise discrepancy between two series on their common time span."""

    sup_norm: float
    rmse: float
    t_at_max: float
    n_points: int


def compare_series(
    first: ObservableSeries, second: ObservableSeries, column: str = "a"
) -> ComparisonResult:
    """Sup-norm and RMSE of one column after interpolating onto the coarser grid."""
    x1 = getattr(first, column)
    x2 = getattr(second, column)
    if x1 is None or x2 is None:
        raise ValueError(f"column {column!r} missing from one of the series")
    lo = max(first.t[0], second.t[0])
    hi = min(first.t[-1], second.t[-1])
    if not lo < hi:
        raise ValueError("series do not overlap in time")

    def restrict(t: np.ndarray) -> np.ndarray:
        return t[(t >= lo - 1e-12) & (t <= hi + 1e-12)]

    # the series that starts at lo has a record in the overlap; the other may have none
    base = min((t for t in (restrict(first.t), restrict(second.t)) if t.size), key=len)
    y1 = np.interp(base, first.t, x1)
    y2 = np.interp(base, second.t, x2)
    diff = np.abs(y1 - y2)
    idx = int(np.argmax(diff))
    return ComparisonResult(
        sup_norm=float(diff[idx]),
        rmse=float(np.sqrt(np.mean(diff**2))),
        t_at_max=float(base[idx]),
        n_points=int(base.size),
    )
