import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entrydyn.abm import Gaussian, TwoSpike
from entrydyn.analysis import (
    fit_exponential_decay,
    learning_window,
    sorting_fit,
)
from entrydyn.core import ErevRothRatio, GameParams, LearningRule, learning_constant, sorting_rate
from entrydyn.grid import DensityGrid, GridSpec
from entrydyn.kinetic import (
    SolverOptions,
    _Stencil,
    advective_dt,
    diffusion_coefficient,
    solve,
)

from conftest import (
    GRID,
    MODEL,
    PDE_FICT_PARAMS,
    PDE_PARAMS,
    CountingLogistic,
    step_advective_dt,
    step_apply,
    step_face_coefficients,
)

SORTED_GRID = GridSpec(-16.0, 16.0, 800)
# interior faces at -5.7, -5.4, ..., 5.7
FACE_GRID = GridSpec(-6.0, 6.0, 40)


def moments(f: DensityGrid) -> tuple[float, float]:
    return _Stencil(f.spec, PDE_PARAMS, MODEL).moments(f.values)


def face_coefficients(a, b, params, spec=FACE_GRID):
    return _Stencil(spec, params, MODEL).face_coefficients(a, b)


class TestMoments:
    def test_point_mass_at_center(self):
        # grid chosen so q = 0 is exactly a cell center
        spec = GridSpec(-2.5, 2.5, 5)
        values = np.zeros(5)
        values[2] = 1.0 / spec.dq
        a, b = moments(DensityGrid(spec, values))
        assert a == 0.5
        assert b == 0.25

    def test_sorted_two_spike(self):
        f = TwoSpike(-15.0, 15.0, 0.5).density(SORTED_GRID)
        a, b = moments(f)
        assert a == pytest.approx(0.5, abs=1e-8)
        assert 0 < b <= 1e-6

    def test_uniform_density_is_balanced(self):
        spec = GridSpec(-8.0, 8.0, 400)
        f = DensityGrid(spec, np.full(400, 1.0 / 16.0))
        a, b = moments(f)
        assert a == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_logistic_model(self):
        with pytest.raises(ValueError, match="logistic"):
            _Stencil(GRID, PDE_PARAMS, ErevRothRatio(1.0))


class TestCoefficients:
    def test_quiet_state_has_zero_flux(self):
        # a at capacity with no spread: no drive and no diffusion, either rule
        for params in (PDE_PARAMS, PDE_FICT_PARAMS):
            v, mu = face_coefficients(params.kappa, 0.0, params)
            assert np.array_equal(v, np.zeros(39))
            assert np.array_equal(mu, np.zeros(39))

    def test_propensity_uniform_rule_by_hand(self):
        # r = 1000, kappa - a = 0.3: v = 300 everywhere,
        # mu = 0.5 * 1000 * (10 * 0.09 + 0.01 * 0.1) = 450.5
        v, mu = face_coefficients(0.2, 0.1, PDE_FICT_PARAMS)
        assert np.allclose(v, 300.0, atol=1e-10)
        assert np.allclose(mu, 450.5, atol=1e-10)
        assert np.ptp(v) == 0.0 and np.ptp(mu) == 0.0

    def test_propensity_dependent_rule_identity(self):
        # v + D p' = r (kappa - a) p pointwise; mu = D p
        q = FACE_GRID.interior_faces()
        a, b = 0.34, 0.18
        v, mu = face_coefficients(a, b, PDE_PARAMS)
        d_coef = diffusion_coefficient(a, b, PDE_PARAMS)
        drive = PDE_PARAMS.r * (PDE_PARAMS.kappa - a)
        assert np.max(np.abs(v + d_coef * MODEL.dprob(q) - drive * MODEL.prob(q))) <= 1e-9
        assert np.max(np.abs(mu - d_coef * MODEL.prob(q))) <= 1e-12

    def test_settled_entry_fraction_leaves_pure_diffusion(self):
        # a = kappa: advection is the -D p' correction only, so v <= 0
        q = FACE_GRID.interior_faces()
        b = 0.2
        v, mu = face_coefficients(PDE_PARAMS.kappa, b, PDE_PARAMS)
        d_expected = 0.5 * PDE_PARAMS.r * PDE_PARAMS.payoff_scale * b
        assert np.all(v <= 0)
        assert np.allclose(mu, d_expected * MODEL.prob(q), atol=1e-12)

    def test_face_probabilities_evaluated_once(self):
        # p at the 800 centres and at the 799 interior faces, once each: p'
        # at the faces reuses their p, and matches evaluating it afresh
        model = CountingLogistic()
        stencil = _Stencil(GRID, PDE_PARAMS, model)
        assert [size for size, _ in model.calls] == [800, 799]
        assert stencil.dp_face.tobytes() == MODEL.dprob(GRID.interior_faces()).tobytes()

    def test_diffusion_coefficient_value(self):
        # D = 0.5 * r * (N h gap^2 + h b)
        assert diffusion_coefficient(0.2, 0.1, PDE_PARAMS) == pytest.approx(450.5)
        assert diffusion_coefficient(0.5, 0.0, PDE_PARAMS) == 0.0


class TestStableDt:
    # the stable step is the advective bound alone: diffusion is implicit
    def test_advection_bound(self):
        assert advective_dt(0.1, np.array([2.0, -4.0]), 0.5, np.inf) == pytest.approx(0.0125)

    def test_cap_wins_when_smallest(self):
        assert advective_dt(0.1, np.array([2.0]), 0.4, 1e-3) == 1e-3

    def test_zero_coefficients_fall_back_to_cap(self):
        assert advective_dt(0.1, np.array([0.0]), 0.4, 0.7) == 0.7


def _own_coefficients(f: DensityGrid, params: GameParams):
    """The face v and mu of f's own moments, which solve applies on its first step."""
    stencil = _Stencil(f.spec, params, MODEL)
    return stencil.face_coefficients(*stencil.moments(f.values))


def _old_diffusive_limit(f: DensityGrid, params: GameParams) -> float:
    """dq^2 / (2 max mu): the step bound of an explicit diffusion update."""
    _, mu = _own_coefficients(f, params)
    return f.spec.dq**2 / (2.0 * float(np.max(mu)))


def _advective_limit(f: DensityGrid, params: GameParams) -> float:
    v, _ = _own_coefficients(f, params)
    return advective_dt(f.spec.dq, v, 1.0, np.inf)


def one_step(f: DensityGrid, params: GameParams, dt: float) -> DensityGrid:
    """f after solve over one record interval dt, which it takes in a single step."""
    result = solve(f, params, MODEL, dt, SolverOptions(output_interval=dt, cfl_safety=0.5))
    assert result.n_steps == 1
    return result.final


class TestStep:
    def test_sorted_equilibrium_is_stationary(self):
        # spikes deep in saturation: a = kappa to machine precision, so the
        # only transport left is diffusion scaled by b ~ 1e-18
        spec = GridSpec(-44.0, 44.0, 440)
        f = TwoSpike(-40.0, 40.0, 0.5).density(spec)
        f_next = one_step(f, PDE_PARAMS, dt=1e-3)
        assert np.max(np.abs(f_next.values - f.values)) <= 1e-12

    def test_mass_conserved_per_step(self):
        # early-transient state: D ~ 450, so dt = 5e-7 is about half the
        # old explicit diffusion limit and 1/200 of the advective bound
        f = Gaussian(-1.9, 1.5).density(GRID)
        f_next = one_step(f, PDE_PARAMS, dt=5e-7)
        assert abs(f_next.mass() - f.mass()) <= 1e-14

    def test_implicit_diffusion_far_beyond_explicit_limit(self):
        # two spikes at +-1: a = kappa by symmetry, so diffusion dominates
        # and half the advective bound leaves room for 100 times the explicit
        # diffusion limit, at which an explicit update would go negative
        f = TwoSpike(-1.0, 1.0, 0.5).density(GRID)
        dt = 100.0 * _old_diffusive_limit(f, PDE_PARAMS)
        assert dt <= 0.5 * _advective_limit(f, PDE_PARAMS)
        f_next = one_step(f, PDE_PARAMS, dt=dt)
        assert abs(f_next.mass() - f.mass()) <= 1e-13
        assert float(f_next.values.min()) >= 0.0
        # the profile spreads: a large step is smoothing, not oscillating
        assert float(f_next.values.max()) < float(f.values.max())

    @settings(max_examples=50, deadline=None)
    @given(
        cells=st.lists(st.just(0.0) | st.floats(1e-6, 10.0), min_size=4, max_size=60),
        half_width=st.floats(2.0, 20.0),
        capacity=st.integers(1, 1000),
        fictitious=st.booleans(),
        cfl_safety=st.floats(0.01, 0.5),
    )
    # v changes sign from negative to positive across the cell holding 1 of
    # 9 : 0 : 1 : 0, so one step at the full bound dq / max|v| emptied it
    # through both faces, to -7.9e-4; solve at cfl_safety 0.5 takes 3 steps
    @example(cells=[9.0, 0.0, 1.0, 0.0], half_width=16.0, capacity=950, fictitious=False, cfl_safety=0.5)
    def test_solve_over_full_advective_bound_keeps_mass_and_positivity(
        self, cells, half_width, capacity, fictitious, cfl_safety
    ):
        # a coarse grid and a rough, partly empty density fix (a, b); with
        # any capacity and either rule, solve over the time dq / max|v| keeps
        # mass and leaves no cell negative
        assume(sum(cells) > 0)
        spec = GridSpec(-half_width, half_width, len(cells))
        values = np.array(cells)
        f = DensityGrid(spec, values / (values.sum() * spec.dq))
        rule = LearningRule.FICTITIOUS_STOCHASTIC if fictitious else LearningRule.BASIC_REINFORCEMENT
        params = GameParams(1000, capacity, 0.01, 100, rule)
        t_end = _advective_limit(f, params)
        assume(np.isfinite(t_end))
        result = solve(f, params, MODEL, t_end, SolverOptions(output_interval=t_end, cfl_safety=cfl_safety))
        assert abs(result.final.mass() - f.mass()) <= 1e-13
        assert float(result.final.values.min()) >= 0.0


class TestStencilTransport:
    def test_constant_advection_translates_profile(self):
        # pure drift at v = 2 for t = 2: profile moves exactly 80 cells
        spec = GridSpec(-10.0, 10.0, 400)
        f0 = Gaussian(-3.0, 0.8).density(spec)
        stencil = _Stencil(spec, PDE_PARAMS, MODEL)
        n_faces = spec.centers().size - 1
        v = np.full(n_faces, 2.0)
        mu = np.zeros(n_faces)
        dt = 0.4 * spec.dq / 2.0
        f = f0.values.copy()
        for _ in range(200):
            f = stencil.apply(f, v, mu, dt)

        dq = spec.dq
        centers = spec.centers()
        mean0 = float(centers @ (f0.values * dq))
        mean = float(centers @ (f * dq))
        assert mean - mean0 == pytest.approx(2.0 * 200 * dt, abs=1e-12)
        assert float(f.sum() * dq) == pytest.approx(f0.mass(), abs=1e-13)

        # first-order upwinding smears the pulse but keeps it recognizable
        reference = np.roll(f0.values, 80)
        assert np.max(np.abs(f - reference)) <= 0.1 * float(f0.values.max())


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


# face values with exact zeros of both signs and unit values of both signs
# among the random ones
SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3)
NONNEGATIVE = st.just(0.0) | st.floats(0.0, 1e4)


class TestStepMatchesAllocatingReference:
    # the step works in place and with fewer calls than conftest's
    # allocating reference; on any grid, under either rule's stencil, every
    # array and step it returns has the reference's bytes

    @pytest.mark.parametrize("rule", [LearningRule.BASIC_REINFORCEMENT, LearningRule.FICTITIOUS_STOCHASTIC])
    @pytest.mark.parametrize("n_cells", [2, 3, 17, 64])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), half_width=st.floats(0.5, 40.0), capacity=st.integers(1, 1000))
    def test_bit_identical_to_reference(self, rule, n_cells, data, half_width, capacity):
        spec = GridSpec(-half_width, half_width, n_cells)
        params = GameParams(1000, capacity, 0.01, 100, rule)
        stencil = _Stencil(spec, params, MODEL)
        faces = spec.interior_faces()
        if rule is LearningRule.FICTITIOUS_STOCHASTIC:
            p_face, dp_face = np.ones(faces.size), np.zeros(faces.size)
        else:
            p_face, dp_face = MODEL.prob(faces), MODEL.dprob(faces)

        # a = kappa with b = 0 gives v = 0 and mu = 0 at every face
        a = data.draw(st.just(params.kappa) | st.floats(0.0, 1.0))
        b = data.draw(st.just(0.0) | st.floats(0.0, 0.25))
        v, mu = stencil.face_coefficients(a, b)
        ref_v, ref_mu = step_face_coefficients(a, b, params, p_face, dp_face)
        assert v.tobytes() == ref_v.tobytes()
        assert mu.tobytes() == ref_mu.tobytes()

        f = np.array(data.draw(st.lists(NONNEGATIVE, min_size=n_cells, max_size=n_cells)))
        drawn_v = np.array(data.draw(st.lists(SIGNED, min_size=n_cells - 1, max_size=n_cells - 1)))
        drawn_mu = np.array(data.draw(st.lists(NONNEGATIVE, min_size=n_cells - 1, max_size=n_cells - 1)))
        cfl_safety = data.draw(st.floats(0.01, 0.5))
        cap = data.draw(st.just(np.inf) | st.floats(1e-9, 1.0))
        for v, mu in ((v, mu), (drawn_v, drawn_mu)):
            dt = advective_dt(spec.dq, v, cfl_safety, cap)
            assert _bits(dt) == _bits(step_advective_dt(spec.dq, v, cfl_safety, cap))
            dt = min(dt, 1.0)
            got = stencil.apply(f, v, mu, dt)
            assert got.tobytes() == step_apply(f, v, mu, dt, spec.dq).tobytes()


def spoiled_start(kind):
    """A gaussian start on GRID spoiled one way: twice the mass, a NaN cell,
    or a cell at -0.01 with the rest rescaled to unit mass."""
    values = Gaussian(0.0, 1.0).density(GRID).values.copy()
    if kind == "double":
        values *= 2.0
    elif kind == "nan":
        values[GRID.n_cells // 2] = np.nan
    else:
        values[0] = -0.01
        values[1:] *= (1.0 + 0.01 * GRID.dq) / (values[1:].sum() * GRID.dq)
    return DensityGrid(GRID, values)


class TestSolve:
    def test_rejects_unnormalized_density(self):
        assert abs(spoiled_start("negative").mass() - 1.0) <= 1e-12
        for kind, match in (("double", "mass 2"), ("nan", "mass nan"), ("negative", r"negative cell \(-0.01\)")):
            with pytest.raises(ValueError, match=match):
                solve(spoiled_start(kind), PDE_PARAMS, MODEL, 0.01)

    def test_rejects_non_logistic_model(self):
        f = Gaussian(0.0, 1.0).density(GRID)
        with pytest.raises(ValueError, match="logistic"):
            solve(f, PDE_PARAMS, ErevRothRatio(1.0), 0.01)

    def test_solver_options_validation(self):
        with pytest.raises(ValueError, match="cfl_safety"):
            SolverOptions(cfl_safety=0.6)
        with pytest.raises(ValueError, match="t_end"):
            solve(Gaussian(0.0, 1.0).density(GRID), PDE_PARAMS, MODEL, 0.0)
        with pytest.raises(ValueError, match="output_interval"):
            SolverOptions(output_interval=-0.01)

    def test_sorted_start_stays_sorted(self):
        f0 = TwoSpike(-15.0, 15.0, 0.5).density(SORTED_GRID)
        result = solve(f0, PDE_PARAMS, MODEL, 0.02, SolverOptions(output_interval=0.005))
        assert np.max(np.abs(result.series.a - 0.5)) <= 1e-7
        assert np.max(result.series.b) <= 1e-6
        assert result.max_mass_residual <= 1e-12

    def test_snapshot_within_1e_12_of_start_is_taken_at_start(self):
        # simulate places a request at the record within 1e-12 of it, t = 0 included
        f0 = TwoSpike(-15.0, 15.0, 0.5).density(SORTED_GRID)
        result = solve(f0, PDE_PARAMS, MODEL, 0.02, SolverOptions(output_interval=0.01), (5e-13, 0.01))
        assert [t for t, _ in result.snapshots] == [0.0, 0.01]
        assert result.snapshots[0][1].values.tobytes() == f0.values.tobytes()

    def test_record_grid_and_snapshots(self, pde_acceptance):
        series = pde_acceptance.series
        assert series.t[0] == 0.0
        assert series.t[-1] == pytest.approx(0.6)
        assert np.allclose(np.diff(series.t), 0.001, atol=1e-12)
        times = [t for t, _ in pde_acceptance.snapshots]
        assert times == pytest.approx([0.0, 0.06, 0.3], abs=1e-9)
        for _, density in pde_acceptance.snapshots:
            assert density.mass() == pytest.approx(1.0, abs=1e-8)

    def test_step_count_not_set_by_diffusion(self, pde_acceptance):
        # the explicit scheme took 39,246 steps here, all diffusion-bound
        assert pde_acceptance.n_steps <= 2000
        assert 0 < pde_acceptance.dt_min <= pde_acceptance.dt_max <= 0.001 + 1e-15

    def test_midpoint_coefficients_keep_time_error_small(self, acceptance_f0):
        # under the q-uniform rule dt ~ 1/|kappa - a|, so coefficients lagged
        # one step leave an O(dt) drift error (about 4.5e-4 here); taken at
        # the extrapolated midpoint they stay near 1e-4
        runs = [
            solve(
                acceptance_f0,
                PDE_FICT_PARAMS,
                MODEL,
                0.01,
                SolverOptions(output_interval=0.001, cfl_safety=safety),
            )
            for safety in (0.4, 0.1)
        ]
        assert np.max(np.abs(runs[0].series.a - runs[1].series.a)) <= 2e-4

    def test_mass_and_positivity_on_acceptance_run(self, pde_acceptance):
        assert pde_acceptance.max_mass_residual <= 1e-8
        assert float(pde_acceptance.final.values.min()) >= -1e-12
        for _, density in pde_acceptance.snapshots:
            assert float(density.values.min()) >= -1e-12

    def test_entry_fraction_rises_to_capacity(self, pde_acceptance):
        a = pde_acceptance.series.a
        assert a[0] == pytest.approx(0.2, abs=5e-3)
        assert np.all(np.diff(a) > -1e-12)
        assert abs(a[-1] - 0.5) < 1e-3

    def test_aggregate_rate_near_moment_prediction(self, pde_acceptance, acceptance_f0):
        series = pde_acceptance.series
        window = learning_window(series.t, series.a, PDE_PARAMS.kappa)
        fit = fit_exponential_decay(series.t, series.a, PDE_PARAMS.kappa, window)
        f0 = acceptance_f0
        predicted = learning_constant(f0.centers(), MODEL, PDE_PARAMS.rule, f0.values * f0.dq) * PDE_PARAMS.r
        assert predicted / 2 <= fit.rate <= predicted * 2
        assert fit.r_squared > 0.98

    def test_sorting_decay_is_slow_and_fittable(self, pde_acceptance):
        # the late-time b decay exists and is clean; its rate falls far
        # below the r*h/2 target, which the acceptance suite reports red
        # (see README on the moment bound)
        fit = sorting_fit(pde_acceptance.series, PDE_PARAMS)
        predicted = sorting_rate(PDE_PARAMS)
        assert predicted == pytest.approx(5.0)
        assert 0 < fit.rate < predicted
        assert fit.n_points >= 100

    def test_diffusion_overtakes_drift_as_entry_settles(self, pde_acceptance):
        series = pde_acceptance.series

        def ratio(k: int) -> float:
            v, mu = face_coefficients(series.a[k], series.b[k], PDE_PARAMS, GRID)
            return float(np.max(np.abs(mu)) / np.max(np.abs(v)))

        early = ratio(0)
        late = ratio(250)  # t = 0.25, well past the learning transient
        assert late < early
        assert late < 0.5

    def test_grid_refinement_converges(self, init_mean, pde_acceptance):
        coarse_spec = GridSpec(-12.0, 12.0, 400)
        f0 = Gaussian(init_mean, 1.5).density(coarse_spec)
        coarse = solve(f0, PDE_PARAMS, MODEL, 0.1, SolverOptions(output_interval=0.01))
        k = int(np.argmin(np.abs(pde_acceptance.series.t - 0.1)))
        assert abs(coarse.series.a[-1] - pde_acceptance.series.a[k]) <= 1e-3
