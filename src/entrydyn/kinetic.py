"""Mean-field drift-diffusion solver for the propensity density.

In the large-population limit the propensity density f(t, q) obeys a
conservation law whose drift and diffusion are set by the instantaneous
observables a = int p f dq and b = int p(1-p) f dq.  With the shared
diffusion scalar

    D(t) = (r N h (kappa - a)^2 + r h b) / 2

the two learning rules give different coefficient fields:

    basic reinforcement   flux velocity v(q) = r (kappa - a) p(q) - D p'(q),
                          diffusion mu(q) = D p(q)
    fictitious play       v and mu independent of q: v = r (kappa - a),
                          mu = D

The private _Stencil is the one place these coefficients and the grid
moments a, b are formed: solve() applies exactly what it returns, and
the tests check the identities above on its face arrays.

Discretization: cell-centered finite volume with no-flux walls and one
IMEX step per time step.  Advection is explicit first-order upwind;
diffusion is centered and backward Euler, one tridiagonal solve of
(I + dt A) per step, A being the no-flux diffusion matrix.  The
coefficients are evaluated once per step, at the step's midpoint
extrapolated from the previous step's change in (a, b).

Positivity and mass: every step of solve() satisfies the scheme's one
stability condition, dt <= cfl_safety dq / max|v| with cfl_safety <= 0.5.
A cell can lose mass through both of its faces in one step, so it takes
the factor 1/2 (not the full dq / max|v|) to make the upwind update a
nonnegative combination of cell values.  I + dt A is an M-matrix with
zero column sums (its inverse is nonnegative and preserves the sum).
So cell averages stay nonnegative and mass is conserved to round-off at
any diffusion strength; only the advective bound and the output interval
limit dt.

Cost: a step is call overhead on small arrays more than arithmetic, so
it works in place: dptsv overwrites its inputs rather than copying them.

The probability model is the logistic, defined on the whole line the
grid spans, and the coefficients take p'(q) from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dptsv

from .core import GameParams, LearningRule, Logistic
from .grid import DensityGrid, GridSpec
from .observables import ObservableSeries, Recorder

MASS_TOLERANCE = 1e-8
NEGATIVITY_TOLERANCE = -1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Step controls for solve(); the config's solver section.

    output_interval  spacing of records in time units (defaults to tau)
    cfl_safety       fraction of the advective CFL bound dq / max|v| used
                     per step; kept at or below 0.5 so the explicit upwind
                     part, and with it the whole step, keeps cell averages
                     nonnegative.  Diffusion is implicit and sets no bound.
    """

    output_interval: float | None = None
    cfl_safety: float = 0.4

    def __post_init__(self) -> None:
        if self.output_interval is not None and not self.output_interval > 0:
            raise ValueError(
                f"output_interval must be positive, got {self.output_interval}"
            )
        if not 0 < self.cfl_safety <= 0.5:
            raise ValueError(
                f"cfl_safety must lie in (0, 0.5], got {self.cfl_safety}"
            )


def diffusion_coefficient(a: float, b: float, params: GameParams) -> float:
    """Shared diffusion scalar D(t) from the current observables."""
    gap = params.kappa - a
    n_h = params.n_agents * params.payoff_scale
    return 0.5 * params.r * (n_h * gap * gap + params.payoff_scale * b)


def advective_dt(dq: float, v: np.ndarray, cfl_safety: float, cap: float) -> float:
    """Largest admissible step, cfl_safety * dq / max|v|, capped at cap."""
    # v is never empty: it has a velocity per interior face, and a grid two cells
    v_max = float(np.abs(v).max())
    if v_max > 0:
        return min(cap, cfl_safety * dq / v_max)
    return cap


class _Stencil:
    """Grid moments and face coefficients, from terms computed once per grid."""

    def __init__(self, spec: GridSpec, params: GameParams, model: Logistic) -> None:
        self.params = params
        self.dq = spec.dq
        centers = spec.centers()
        faces = spec.interior_faces()
        self.p_center = model.prob(centers)
        self.w_center = self.p_center * (1.0 - self.p_center)
        if params.rule is LearningRule.FICTITIOUS_STOCHASTIC:
            # v = drive and mu = D at every face: the basic forms with p = 1, p' = 0
            self.p_face, self.dp_face = np.ones(faces.size), np.zeros(faces.size)
        else:
            self.p_face = model.prob(faces)
            self.dp_face = model.dprob(faces, self.p_face)

    def moments(self, f: np.ndarray) -> tuple[float, float]:
        """Entry fraction a and sorting coefficient b of cell values f."""
        fdq = f * self.dq
        return float(self.p_center @ fdq), float(self.w_center @ fdq)

    def face_coefficients(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Flux velocity v and diffusion mu at the interior faces."""
        drive = self.params.r * (self.params.kappa - a)
        d_coef = diffusion_coefficient(a, b, self.params)
        v = drive * self.p_face
        v -= d_coef * self.dp_face
        return v, d_coef * self.p_face

    def apply(self, f: np.ndarray, v: np.ndarray, mu: np.ndarray, dt: float) -> np.ndarray:
        """One IMEX step with face velocities v and diffusivities mu >= 0."""
        ratio = dt / self.dq
        flux = ratio * v
        flux *= np.where(v > 0, f[:-1], f[1:])
        rhs = f.copy()
        rhs[:-1] -= flux
        rhs[1:] += flux
        # backward-Euler diffusion: (I + dt A) f_new = rhs.  The matrix is
        # symmetric positive definite; its L D L^T factors have nonpositive
        # off-diagonals and a positive diagonal, so the solve keeps rhs >= 0
        # nonnegative in floating point as well.  The off-diagonal is
        # -dt mu / dq^2; diagonal row i is (1 - off[i]) - off[i-1], the
        # terms that exist at the two end rows
        off = (-(ratio / self.dq)) * mu
        diag = np.empty_like(f)
        diag[-1] = 1.0
        np.subtract(1.0, off, out=diag[:-1])
        diag[1:] -= off
        *_, out, info = dptsv(diag, off, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"diffusion solve failed (LAPACK dptsv info={info})")
        return out


@dataclass
class PdeResult:
    """Output of solve().

    n_steps          time steps taken
    dt_min, dt_max   shortest and longest step, counting the steps split
                     evenly to land on record times
    """

    series: ObservableSeries
    snapshots: list[tuple[float, DensityGrid]] = field(default_factory=list)
    final: DensityGrid | None = None
    max_mass_residual: float = 0.0
    n_steps: int = 0
    dt_min: float = 0.0
    dt_max: float = 0.0


def _record_times(t_end: float, interval: float) -> list[float]:
    """0, interval, 2 interval, ... below t_end, then t_end itself."""
    n_out = max(1, math.ceil(t_end / interval - 1e-9))
    times = [k * interval for k in range(n_out)]
    times.append(t_end)
    return times


def _split(remaining: float, bound: float) -> float:
    """Equal steps no longer than bound that land exactly on the record time."""
    return remaining / max(1, math.ceil(remaining / bound * (1.0 - 1e-12)))


def solve(
    f0: DensityGrid,
    params: GameParams,
    model: Logistic,
    t_end: float,
    options: SolverOptions = SolverOptions(),
    snapshot_times: tuple[float, ...] = (),
) -> PdeResult:
    """Advance the density to t_end, recording observables on a uniform grid.

    Raises ValueError for a start f0 off unit mass (1e-8), with a
    non-finite cell or a cell below -1e-12, and RuntimeError if a step
    breaches mass conservation or positivity; that would mean the scheme
    itself is broken, not the input.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    stencil = _Stencil(f0.spec, params, model)
    mass0 = f0.mass()
    # written so that NaN fails it: a non-finite cell makes the mass non-finite
    if not abs(mass0 - 1.0) <= MASS_TOLERANCE:
        raise ValueError(f"initial density has mass {mass0:.12g}, expected 1")
    low = float(f0.values.min())
    if low < NEGATIVITY_TOLERANCE:
        raise ValueError(f"initial density has a negative cell ({low:g})")

    interval = options.output_interval if options.output_interval is not None else params.tau
    f = f0.values.copy()
    t = 0.0
    max_residual = 0.0
    dq = stencil.dq

    a, b = stencil.moments(f)
    # per-unit-time change of (a, b) over the last step, for the midpoint
    da = db = 0.0
    dt_bound = interval
    n_steps, dt_min, dt_max = 0, math.inf, 0.0
    recorder = Recorder(snapshot_times)
    for t_next in _record_times(t_end, interval):
        while t < t_next - 1e-15:
            remaining = t_next - t
            # coefficients at the step's midpoint, its length predicted by
            # the last step's bound; dt itself comes from the velocities
            # actually applied, and b is clamped so diffusion stays >= 0
            half = 0.5 * _split(remaining, dt_bound)
            v, mu = stencil.face_coefficients(a + half * da, max(b + half * db, 0.0))
            dt_bound = advective_dt(dq, v, options.cfl_safety, interval)
            dt = _split(remaining, dt_bound)
            f = stencil.apply(f, v, mu, dt)
            t += dt
            low = float(f.min())
            if low < NEGATIVITY_TOLERANCE:
                raise RuntimeError(f"density went negative ({low:g}) at t={t:g}")
            a_new, b_new = stencil.moments(f)
            da, db = (a_new - a) / dt, (b_new - b) / dt
            a, b = a_new, b_new
            n_steps += 1
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        t = t_next
        if not np.isfinite(f).all():
            raise RuntimeError(f"density lost finiteness at t={t:g}")
        residual = abs(float(f.sum() * dq) - 1.0)
        max_residual = max(max_residual, residual)
        if residual > MASS_TOLERANCE:
            raise RuntimeError(f"mass residual {residual:g} at t={t:g}")
        recorder.record(t, a, b, lambda: DensityGrid(f0.spec, f.copy()), t == t_end)

    return PdeResult(
        series=recorder.series(),
        snapshots=recorder.snapshots,
        final=DensityGrid(f0.spec, f),
        max_mass_residual=max_residual,
        n_steps=n_steps,
        dt_min=dt_min,
        dt_max=dt_max,
    )
