import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logit

from entrydyn import core
from entrydyn.abm import (
    AllEqual,
    Explicit,
    Gaussian,
    TwoSpike,
    _moments,
    ensemble_run,
    init_population,
    simulate,
)
from entrydyn.analysis import fit_exponential_decay
from entrydyn.core import DomainError, ErevRothRatio, GameParams, LearningRule, Logistic
from entrydyn.grid import DensityGrid, GridSpec, gaussian_density, histogram_density
from entrydyn.kinetic import SolverOptions, solve
from entrydyn.observables import Recorder
from entrydyn.oracle import enumerate_block

from conftest import CountingLogistic, play_round, update_propensity

BASIC = LearningRule.BASIC_REINFORCEMENT
FICT = LearningRule.FICTITIOUS_STOCHASTIC
MODEL = Logistic(1.0, 0.0)


def make_params(n=1000, c=500, h=0.01, m=100, rule=BASIC):
    return GameParams(n, c, h, m, rule)


def reference_simulate(params, model, init, t_end, seed, record_stride, snapshot_times, grid):
    """simulate() as a loop of rounds on fresh buffers, p evaluated apart for records."""
    rng = np.random.default_rng(seed)
    q = init_population(params, init, rng)
    n_rounds = max(1, math.ceil(t_end * params.rounds_per_unit - 1e-9))
    pending = sorted(snapshot_times)
    rows, snapshots = [], []
    for n in range(n_rounds + 1):
        t = n * params.tau
        is_record = n % record_stride == 0 or n == n_rounds
        if is_record:
            p = model.prob(q)
            a, b = float(p.mean()), float((p * (1.0 - p)).mean())
            due = [s for s in pending if s <= t + 1e-12 or n == n_rounds]
            pending = pending[len(due):]
            if due:
                snapshots.append((t, histogram_density(grid, q)))
        m_frac = math.nan
        if n < n_rounds:
            q, _, m = play_round(q, params, model, rng)
            m_frac = m / params.n_agents
        if is_record:
            rows.append((t, a, b, m_frac))
    return np.array(rows), snapshots, q


class TestInitPopulation:
    def test_all_equal(self):
        q = init_population(make_params(n=4, c=2), AllEqual(0.0), 0)
        assert np.array_equal(q, np.zeros(4))

    def test_explicit(self):
        q = init_population(make_params(n=2, c=1), Explicit((0.1, 0.2)), 0)
        assert np.array_equal(q, [0.1, 0.2])

    def test_explicit_wrong_length(self):
        with pytest.raises(ValueError):
            init_population(make_params(n=3, c=1), Explicit((0.1, 0.2)), 0)

    @pytest.mark.parametrize("sd", [0.0, -1.0])
    def test_nonpositive_sd_rejected(self, sd):
        with pytest.raises(ValueError, match="sd must be positive"):
            Gaussian(0.0, sd)

    def test_lattice_snap(self):
        params = make_params(h=0.01)
        q = init_population(params, Gaussian(0.3, 2.0, snap_to_lattice=True), 7)
        steps = (q - 0.3) / params.payoff_scale
        assert np.max(np.abs(steps - np.round(steps))) <= 1e-9

    def test_seed_reproducibility(self):
        a = init_population(make_params(), Gaussian(0.0, 1.0), 42)
        b = init_population(make_params(), Gaussian(0.0, 1.0), 42)
        assert np.array_equal(a, b)


class TestPlayRound:
    def test_sole_saturated_entrant(self):
        params = GameParams(1, 1, 0.01, 100, BASIC)
        q = np.array([40.0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            q, _, m = play_round(q, params, MODEL, rng)
            assert m == 1
            assert q[0] == 40.0

    def test_binomial_entrant_count_statistics(self):
        # fixed state, repeated draws: m ~ Binomial(1000, 0.5)
        params = make_params()
        q = init_population(params, AllEqual(0.0), 1)
        rng = np.random.default_rng(99)
        ms = np.array([play_round(q, params, MODEL, rng)[2] for _ in range(10_000)])
        sd_exact = np.sqrt(1000 * 0.25)  # 15.81
        assert abs(ms.mean() - 500.0) <= 4 * sd_exact / np.sqrt(10_000)
        assert abs(ms.std(ddof=1) - sd_exact) <= 0.05 * sd_exact

    def test_heterogeneous_law_matches_enumeration(self):
        q = np.array([-1.0, -0.2, 0.4, 1.3])
        params = GameParams(4, 2, 0.05, 10, FICT)
        m_probs = enumerate_block([(q, params, MODEL)]).m_probs[0]
        rng = np.random.default_rng(123)
        n_rounds = 40_000
        counts = np.zeros(5)
        for _ in range(n_rounds):
            counts[play_round(q, params, MODEL, rng)[2]] += 1
        expected = n_rounds * m_probs
        z = np.abs(counts - expected) / np.sqrt(expected * (1 - m_probs))
        assert np.max(z) < 4.0

    def test_two_phase_update_uses_one_entrant_count(self):
        # fictitious rule from a common start: exactly two propensity values,
        # split by h, both computed from the same realized m
        params = make_params(n=200, c=100, rule=FICT)
        q = init_population(params, AllEqual(0.0), 3)
        new, _, m = play_round(q, params, MODEL, np.random.default_rng(3))
        values = np.unique(new)
        assert values.size == 2
        gain = params.payoff_scale * (params.capacity - m)
        assert values[1] == pytest.approx(gain, abs=1e-15)
        assert values[0] == pytest.approx(gain - params.payoff_scale, abs=1e-15)

    def test_outsiders_frozen_under_basic(self):
        params = make_params(n=200, c=100, rule=BASIC)
        q = init_population(params, Gaussian(0.0, 1.0), 8)
        new, entered, m = play_round(q, params, MODEL, np.random.default_rng(8))
        assert np.array_equal(new[~entered], q[~entered])
        assert m == int(entered.sum())

    @settings(max_examples=60, deadline=None)
    @given(
        rule=st.sampled_from([BASIC, FICT]),
        n=st.integers(1, 80),
        capacity_frac=st.floats(0.0, 1.0),
        h=st.floats(1e-4, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_reference_rule(self, rule, n, capacity_frac, h, seed):
        # every agent's new q is exactly the scalar rule's, given the
        # decisions and the entrant count the vectorised round drew
        params = GameParams(n, max(1, round(capacity_frac * n)), h, 100, rule)
        rng = np.random.default_rng(seed)
        q = rng.normal(0.0, 2.0, n)
        new, entered, m = play_round(q, params, MODEL, rng)
        assert m == int(entered.sum())
        expected = [update_propensity(qi, bool(ei), m, params) for qi, ei in zip(q, entered)]
        assert new.tolist() == expected

    def test_ratio_model_negative_propensity_aborts(self):
        # overcrowding drives propensities negative; must be a hard error.
        # small baseline makes entry near-certain, so m > c on round one
        params = GameParams(4, 1, 0.1, 10, BASIC)
        q = init_population(params, AllEqual(0.05), 0)
        model = ErevRothRatio(0.01)
        rng = np.random.default_rng(2)
        with pytest.raises(DomainError, match="nonnegative"):
            for _ in range(50):
                q, _, _ = play_round(q, params, model, rng)


def record_moments(q):
    """a and b as simulate records them, through abm._moments."""
    p = MODEL.prob(np.asarray(q, dtype=float))
    return _moments(p, np.empty_like(p))


class TestEmpiricalMoments:
    def test_all_at_half(self):
        a, b = record_moments(np.zeros(10))
        assert a == pytest.approx(0.5, abs=1e-15)
        assert b == pytest.approx(0.25, abs=1e-15)

    def test_sorted_state(self):
        a, b = record_moments(np.concatenate([np.full(3, 40.0), np.full(7, -40.0)]))
        assert a == pytest.approx(0.3, abs=1e-12)
        assert b <= 1e-12

    def test_two_agent_average(self):
        a, b = record_moments([logit(0.2), logit(0.6)])
        assert a == pytest.approx(0.4, abs=1e-12)
        assert b == pytest.approx(0.2, abs=1e-12)


class TestEmpiricalDensity:
    def test_point_mass(self):
        spec = GridSpec(-1.0, 1.0, 20)
        q = np.full(50, 0.333)
        density = histogram_density(spec, q)
        k = int(np.argmin(np.abs(spec.centers() - 0.333)))
        assert density.values[k] == pytest.approx(1.0 / spec.dq, rel=1e-12)
        assert np.count_nonzero(density.values) == 1

    def test_unit_mass(self):
        spec = GridSpec(-6.0, 6.0, 37)
        rng = np.random.default_rng(4)
        q = rng.normal(0, 1.5, 400)
        assert histogram_density(spec, q).mass() == pytest.approx(1.0, abs=1e-12)

    def test_two_equal_cohorts(self):
        spec = GridSpec(0.0, 1.0, 10)
        q = np.array([0.15] * 30 + [0.75] * 30)
        density = histogram_density(spec, q)
        assert density.values[1] == pytest.approx(1.0 / (2 * spec.dq), rel=1e-12)
        assert density.values[7] == pytest.approx(1.0 / (2 * spec.dq), rel=1e-12)

    def test_out_of_range_mass_warns_and_clips(self):
        spec = GridSpec(-1.0, 1.0, 8)
        q = np.array([-5.0, 0.0, 7.0, 8.0])
        with pytest.warns(UserWarning, match="outside"):
            density = histogram_density(spec, q)
        assert density.mass() == pytest.approx(1.0, abs=1e-12)
        assert density.values[0] > 0 and density.values[-1] > 0

    def test_points_at_the_top_edge_keep_their_mass(self):
        # q_min + n_cells * dq rounds below q_max on this grid, so agents at
        # or beyond q_max must still land in the last cell
        spec = GridSpec(-4.362, 30.371, 1941)
        q = np.array([0.0, spec.q_max, 40.0])
        with pytest.warns(UserWarning, match="1 propensities outside"):
            density = histogram_density(spec, q)
        assert density.mass() == pytest.approx(1.0, abs=1e-12)
        assert density.values[-1] == pytest.approx(2.0 / (3.0 * spec.dq), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        q_min=st.floats(-50.0, 50.0),
        width=st.floats(0.1, 100.0),
        n_cells=st.integers(2, 3000),
        beyond=st.floats(0.0, 10.0),
    )
    def test_unit_mass_with_points_at_and_beyond_both_ends(self, q_min, width, n_cells, beyond):
        spec = GridSpec(q_min, q_min + width, n_cells)
        ends = [spec.q_min, spec.q_max, spec.q_min - beyond, spec.q_max + beyond]
        q = np.array(ends + [q_min + 0.5 * width])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            density = histogram_density(spec, q)
        assert density.mass() == pytest.approx(1.0, abs=1e-12)
        assert density.values[0] > 0 and density.values[-1] > 0


class TestSimulate:
    def test_record_count(self):
        params = make_params(n=50, c=25)
        result = simulate(params, MODEL, AllEqual(0.0), t_end=3 / 100, seed=0)
        assert np.allclose(result.series.t, [0.0, 0.01, 0.02, 0.03])
        assert len(result.series) == 4

    def test_sorted_start_is_stationary(self, abm_sorted_run):
        series = abm_sorted_run.series
        n = 1000
        assert np.max(np.abs(series.a - 0.5)) <= 4 * 2 / np.sqrt(n)
        assert np.max(series.b) <= 1e-12

    def test_lattice_preserved_over_run(self):
        params = make_params(n=100, c=50, h=0.01)
        result = simulate(params, MODEL, AllEqual(0.3), t_end=0.05, seed=5)
        steps = (result.final - 0.3) / params.payoff_scale
        assert np.max(np.abs(steps - np.round(steps))) <= 1e-6

    def test_observable_bounds_and_m_frac(self):
        params = make_params(n=100, c=50)
        result = simulate(params, MODEL, Gaussian(0.0, 2.0), t_end=0.1, seed=6)
        s = result.series
        assert np.all((s.a >= 0) & (s.a <= 1))
        assert np.all((s.b >= 0) & (s.b <= 0.25 + 1e-12))
        assert np.all((s.m_frac[:-1] >= 0) & (s.m_frac[:-1] <= 1))
        assert np.isnan(s.m_frac[-1])  # no round is played after the last record

    def test_determinism(self):
        params = make_params(n=100, c=50)
        r1 = simulate(params, MODEL, Gaussian(0.0, 1.0), t_end=0.1, seed=9)
        r2 = simulate(params, MODEL, Gaussian(0.0, 1.0), t_end=0.1, seed=9)
        assert np.array_equal(r1.series.a, r2.series.a)
        assert np.array_equal(r1.final, r2.final)

    def test_snapshots_at_requested_times(self):
        params = make_params(n=100, c=50)
        result = simulate(
            params,
            MODEL,
            Gaussian(0.0, 1.0),
            t_end=0.1,
            seed=10,
            snapshot_times=(0.0, 0.05),
            snapshot_grid=GridSpec(-8.0, 8.0, 100),
        )
        times = [t for t, _ in result.snapshots]
        assert times == [0.0, 0.05]
        for _, density in result.snapshots:
            assert density.mass() == pytest.approx(1.0, abs=1e-12)

    def test_snapshot_within_1e_12_of_start_is_taken_at_start(self):
        # solve places a request at the record within 1e-12 of it, t = 0 included
        params = make_params(n=100, c=50)
        grid = GridSpec(-8.0, 8.0, 100)
        result = simulate(
            params, MODEL, Gaussian(0.0, 1.0), 0.02, 10, snapshot_times=(5e-13, 0.01), snapshot_grid=grid
        )
        assert [t for t, _ in result.snapshots] == [0.0, 0.01]
        start = histogram_density(grid, init_population(params, Gaussian(0.0, 1.0), 10))
        assert result.snapshots[0][1].values.tobytes() == start.values.tobytes()

    def test_snapshot_placement_matches_solve(self):
        # the same records on both engines, so the same requests land at the same times
        params = make_params(n=100, c=50)
        grid = GridSpec(-8.0, 8.0, 100)
        tau = params.tau
        requests = (0.0, 5e-13, 2 * tau - 1e-13, 2.5 * tau, 3 * tau, 3 * tau, 1.0)
        agents = simulate(params, MODEL, Gaussian(0.0, 1.0), 5 * tau, 4, 1, requests, grid)
        density = solve(
            gaussian_density(grid, 0.0, 1.0),
            params,
            MODEL,
            5 * tau,
            SolverOptions(output_interval=tau),
            requests,
        )
        assert agents.series.t.tobytes() == density.series.t.tobytes()
        times = [t for t, _ in agents.snapshots]
        assert times == [t for t, _ in density.snapshots]
        # requests due at the same record share its one snapshot
        assert times == [k * tau for k in (0, 2, 3, 5)]

    @settings(max_examples=100, deadline=None)
    @given(
        record_times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12, unique=True).map(sorted),
        data=st.data(),
    )
    def test_recorder_takes_one_snapshot_per_record(self, record_times, data):
        # requests: free times, and times on or within about 1e-12 of a record
        near = st.builds(
            lambda t, offset: t + offset,
            st.sampled_from(record_times),
            st.sampled_from([-2e-12, -5e-13, 0.0, 5e-13, 2e-12]),
        )
        requests = data.draw(st.lists(st.floats(0.0, 1.5) | near, max_size=10))

        def placement(s):
            return next((t for t in record_times if s <= t + 1e-12), record_times[-1])

        recorder = Recorder(tuple(requests))
        density = DensityGrid(GridSpec(0.0, 1.0, 2), np.ones(2))
        for k, t in enumerate(record_times):
            calls = []
            recorder.record(t, 0.5, 0.25, lambda: calls.append(t) or density, k == len(record_times) - 1)
            assert len(calls) <= 1
        times = [t for t, _ in recorder.snapshots]
        assert times == sorted({placement(s) for s in requests})

    @staticmethod
    def assert_matches_play_round_loop(params, model, init, record_stride):
        grid = GridSpec(-8.0, 8.0, 64)
        snaps = (0.0, 0.1, 0.5)
        result = simulate(params, model, init, 0.3, 11, record_stride, snaps, grid)
        rows, ref_snaps, ref_final = reference_simulate(
            params, model, init, 0.3, 11, record_stride, snaps, grid
        )
        s = result.series
        for column, values in zip(rows.T, (s.t, s.a, s.b, s.m_frac)):
            assert column.tobytes() == values.tobytes()
        assert result.final.tobytes() == ref_final.tobytes()
        assert [t for t, _ in result.snapshots] == [t for t, _ in ref_snaps]
        for (_, got), (_, ref) in zip(result.snapshots, ref_snaps):
            assert got.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("record_stride", [1, 3])
    @pytest.mark.parametrize(
        "model, init",
        [(Logistic(1.3, 0.2), Gaussian(0.0, 1.5)), (ErevRothRatio(3.0), Gaussian(3.0, 0.5))],
        ids=["logistic", "ratio"],
    )
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_bit_identical_to_play_round_loop(self, rule, model, init, record_stride):
        params = make_params(n=400, c=200, rule=rule)
        self.assert_matches_play_round_loop(params, model, init, record_stride)

    @pytest.mark.parametrize("model", [MODEL, Logistic(1.3, 0.2)], ids=["standard", "affine"])
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_forced_exact_recheck_is_bit_identical(self, monkeypatch, rule, model):
        # every |u - p~| is at most 1, so every agent of every non-record
        # round takes its decision from the exact path
        monkeypatch.setattr(core, "_TIE", 1.0)
        params = make_params(n=400, c=200, rule=rule)
        self.assert_matches_play_round_loop(params, model, Gaussian(0.0, 1.5), 3)

    @pytest.mark.parametrize("record_stride", [1, 3])
    def test_one_probability_evaluation_per_round(self, record_stride):
        # the exact p of the whole population is evaluated, into simulate's
        # buffer, once per record and never on other rounds, which draw
        # through model.enters
        model = CountingLogistic()
        params = make_params(n=50, c=25)
        result = simulate(params, model, Gaussian(0.0, 1.0), 0.12, 2, record_stride)
        n_records = len(result.series)
        assert n_records == (13 if record_stride == 1 else 5)
        assert [call for call in model.calls if call[0] == 50] == [(50, True)] * n_records

    def test_round_loop_allocates_no_agent_arrays(self):
        # the run holds q, p and work (8 bytes per agent each) and entered
        # (1 byte); a further float array allocated in any round would lift
        # the peak to about 4.1 * 8 * n
        n = 100_000
        params = make_params(n=n, c=n // 2, h=1e-5)
        tracemalloc.start()
        try:
            simulate(params, MODEL, AllEqual(0.0), 0.2, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * n

    @settings(max_examples=40, deadline=None)
    @given(
        rule=st.sampled_from([BASIC, FICT]),
        n=st.integers(1, 60),
        capacity_frac=st.floats(0.0, 1.0),
        h=st.floats(0.005, 0.5),
        mean=st.floats(-3.0, 3.0),
        sd=st.floats(0.0, 3.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_snapped_population_stays_on_lattice(self, rule, n, capacity_frac, h, mean, sd, seed):
        params = GameParams(n, max(1, round(capacity_frac * n)), h, 100, rule)
        init = Gaussian(mean, sd, snap_to_lattice=True)
        result = simulate(params, MODEL, init, 0.2, seed)
        steps = (result.final - mean) / h
        assert np.max(np.abs(steps - np.round(steps))) <= 1e-6

    def test_point_start_aggregate_learning(self):
        # All-equal start at p=0.2: a(t) climbs toward kappa. The t=0
        # prediction c_p*r undershoots the realized decay because mean(p'p)
        # grows from a point start, so the band here is a documented factor
        # 3 on the early window (see README), not the Gaussian-start
        # factor 2 used by the acceptance suite.
        params = make_params()
        series = ensemble_run(
            params, MODEL, AllEqual(float(logit(0.2))), t_end=0.1,
            n_replicas=8, base_seed=42,
        )
        assert series.a[0] == pytest.approx(0.2, abs=1e-12)
        coarse = series.a[:: len(series.a) // 10]
        assert np.all(np.diff(coarse) > -0.01)
        assert abs(series.a[-1] - 0.5) < 0.02
        c_p = 0.2 * 0.8 * 0.2
        fit = fit_exponential_decay(series.t, series.a, 0.5, window=(0.0, 0.06))
        target = c_p * params.r
        assert target / 3 <= fit.rate <= target * 3


class TestEnsembleRun:
    def test_stderr_fields_present(self):
        params = make_params(n=50, c=25)
        series = ensemble_run(params, MODEL, Gaussian(0.0, 1.0), 0.05, 3, base_seed=0)
        assert series.stderr_a is not None and series.stderr_b is not None
        assert np.all(series.stderr_a >= 0)

    def test_equilibrium_start_stderr_bound(self):
        params = make_params(n=400, c=100)
        series = ensemble_run(params, MODEL, TwoSpike(-40.0, 40.0, 0.25), 0.05, 4, base_seed=1)
        assert np.max(series.stderr_a) <= 4 / np.sqrt(400 * 4)
        assert np.max(np.abs(series.a - 0.25)) <= 1e-12

    def test_identical_replicas_collapse_stderr(self):
        # at q = +-40 every draw decides the same way, and the sorted start at
        # c entrants pays nothing, so every replica repeats the first
        params = make_params(n=50, c=25)
        series = ensemble_run(params, MODEL, TwoSpike(-40.0, 40.0, 0.5), 0.05, 3, base_seed=0)
        assert np.max(series.stderr_a) == 0.0
        assert np.max(series.stderr_b) == 0.0

    def test_one_replica_is_the_plain_run(self):
        params = make_params(n=50, c=25)
        series = ensemble_run(params, MODEL, Gaussian(0.0, 1.0), 0.05, 1, base_seed=7, record_stride=2)
        plain = simulate(params, MODEL, Gaussian(0.0, 1.0), 0.05, 7, record_stride=2).series
        for name in ("t", "a", "b", "m_frac"):
            assert getattr(series, name).tobytes() == getattr(plain, name).tobytes()
        assert series.stderr_a is None and series.stderr_b is None

    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_one_round_a_and_b_match_the_oracle(self, rule):
        # the ensemble's record one round ahead against the exact one-round law
        q = np.array([-1.0, -0.3, 0.2, 0.9, 1.7])
        params = GameParams(5, 2, 0.3, 10, rule)
        model = Logistic(1.3, 0.2)
        law = enumerate_block([(q, params, model)])
        series = ensemble_run(params, model, Explicit(tuple(q)), params.tau, n_replicas=4000, base_seed=0)
        assert series.t[1] == params.tau
        z_a = (series.a[1] - law.expected_a[0]) / series.stderr_a[1]
        z_b = (series.b[1] - law.expected_b[0]) / series.stderr_b[1]
        assert abs(z_a) < 4.0 and abs(z_b) < 4.0, (z_a, z_b)

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError, match="n_replicas must be >= 1, got 0"):
            ensemble_run(make_params(n=50, c=25), MODEL, Gaussian(0.0, 1.0), 0.05, 0, base_seed=0)
