import math
import re
import tracemalloc
import warnings
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logit

from entrydyn import abm, core
from entrydyn.abm import (
    AllEqual,
    Explicit,
    Gaussian,
    TwoSpike,
    _moment_sums,
    ensemble_run,
    simulate,
)
from entrydyn.analysis import compare_series, fit_exponential_decay
from entrydyn.core import GameParams, LearningRule, Logistic, pairwise_fold, pairwise_leaves
from entrydyn.grid import DensityGrid, GridSpec, histogram_density
from entrydyn.kinetic import SolverOptions, solve
from entrydyn.observables import Recorder
from entrydyn.oracle import enumerate_block

from conftest import (
    ABM_FICT_PARAMS,
    BASE_SEED,
    INIT_SD,
    CountingLogistic,
    fictitious_round_map,
    play_round,
    update_propensity,
)

BASIC = LearningRule.BASIC_REINFORCEMENT
FICT = LearningRule.FICTITIOUS_STOCHASTIC
MODEL = Logistic(1.0, 0.0)


def make_params(n=1000, c=500, h=0.01, m=100, rule=BASIC):
    return GameParams(n, c, h, m, rule)


# the round's bit-identity tests: an affine logistic from a start at its
# centre, and the standard logistic from a crowded start that almost every
# agent enters, whose first rounds drive propensities down through zero
BIT_IDENTITY_MODELS = pytest.mark.parametrize(
    "model, init",
    [(Logistic(1.3, 0.2), Gaussian(0.0, 1.5)), (Logistic(), Gaussian(3.0, 0.5))],
    ids=["logistic", "crowded"],
)


def reference_simulate(params, model, init, t_end, seed, record_stride, snapshot_times, grid):
    """simulate() as a loop of rounds on fresh buffers, p evaluated apart for records."""
    rng = np.random.default_rng(seed)
    q = init.population(params, rng)
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
        q = AllEqual(0.0).population(make_params(n=4, c=2), np.random.default_rng(0))
        assert np.array_equal(q, np.zeros(4))

    def test_explicit(self):
        q = Explicit((0.1, 0.2)).population(make_params(n=2, c=1), np.random.default_rng(0))
        assert np.array_equal(q, [0.1, 0.2])

    def test_explicit_wrong_length(self):
        with pytest.raises(ValueError):
            Explicit((0.1, 0.2)).population(make_params(n=3, c=1), np.random.default_rng(0))

    def test_explicit_without_values_rejected(self):
        # the density engine does not check the count, so the start itself must
        with pytest.raises(ValueError, match="values must hold at least one propensity"):
            Explicit(())

    @pytest.mark.parametrize("sd", [0.0, -1.0])
    def test_nonpositive_sd_rejected(self, sd):
        with pytest.raises(ValueError, match="sd must be positive"):
            Gaussian(0.0, sd)

    def test_seed_reproducibility(self):
        a = Gaussian(0.0, 1.0).population(make_params(), np.random.default_rng(42))
        b = Gaussian(0.0, 1.0).population(make_params(), np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestMeanForEntryFraction:
    @pytest.mark.parametrize("target", [0.05, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize(
        "model", [MODEL, Logistic(0.7, -1.3), Logistic(0.05, 2.0)], ids=["unit", "shifted", "steep"]
    )
    def test_start_enters_at_the_target_fraction(self, model, target):
        sd = 1.5
        mean = Gaussian(0.0, sd).with_entry_fraction(model, target).mean
        # E[p(Q)] by the trapezoid rule over 16 sd either side
        q = np.linspace(mean - 16 * sd, mean + 16 * sd, 20_001)
        weights = np.exp(-0.5 * ((q - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        values = weights * model.prob(q)
        entry = float((values[1:] + values[:-1]).sum() / 2 * (q[1] - q[0]))
        assert entry == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_target_outside_the_open_unit_interval(self, target):
        with pytest.raises(ValueError, match=r"target_entry_fraction must lie in \(0, 1\)"):
            Gaussian(0.0, 1.0).with_entry_fraction(MODEL, target)

    def test_target_out_of_the_bracket_is_named(self):
        # means within 60 scales + 10 sd of the center reach no lower entry fraction
        with pytest.raises(
            ValueError,
            match=r"target_entry_fraction 1e-300 is out of reach: means within 75 of the model center"
            r" give entry fractions 8.25e-33 to 1$",
        ):
            Gaussian(0.0, 1.5).with_entry_fraction(MODEL, 1e-300)

    def test_start_too_wide_for_its_model(self):
        # sd / scale = 4096 would take 256 * 4096 + 1 = 2^20 + 1 trapezoid points
        with pytest.raises(ValueError, match=r"sd 4096 is too wide for model scale 1: more than 2\^20 points"):
            Gaussian(0.0, 4096.0).with_entry_fraction(MODEL, 0.2)


# one small instance of each start type; a start type missing here fails the guard below
SMALL_STARTS = {
    AllEqual: AllEqual(0.25),
    Gaussian: Gaussian(0.0, 1.0),
    Explicit: Explicit((-0.5, 0.0, 0.25, 1.0)),
    TwoSpike: TwoSpike(-1.0, 1.0, 0.5),
}


class TestStartTypes:
    def test_every_start_type_realizes_itself(self):
        assert set(SMALL_STARTS) == set(get_args(abm.InitialCondition))
        params = make_params(n=4, c=2)
        spec = GridSpec(-4.0, 4.0, 16)
        for cls, init in SMALL_STARTS.items():
            assert {"population", "density"} <= set(vars(cls))
            q = init.population(params, np.random.default_rng(0))
            assert q.dtype == np.float64 and q.shape == (4,)
            density = init.density(spec)
            assert density.spec == spec
            assert density.mass() == pytest.approx(1.0, abs=1e-12)
        # the config maps kind -> start type, so no two start types may share a kind
        kinds = [cls.kind for cls in SMALL_STARTS]
        assert len(set(kinds)) == len(kinds)


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
        q = AllEqual(0.0).population(params, np.random.default_rng(1))
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
        q = AllEqual(0.0).population(params, np.random.default_rng(3))
        new, _, m = play_round(q, params, MODEL, np.random.default_rng(3))
        values = np.unique(new)
        assert values.size == 2
        gain = params.payoff_scale * (params.capacity - m)
        assert values[1] == pytest.approx(gain, abs=1e-15)
        assert values[0] == pytest.approx(gain - params.payoff_scale, abs=1e-15)

    def test_outsiders_frozen_under_basic(self):
        params = make_params(n=200, c=100, rule=BASIC)
        q = Gaussian(0.0, 1.0).population(params, np.random.default_rng(8))
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

    def test_overcrowding_drives_propensities_below_zero(self):
        # entry is near-certain at first, so m > c and every entrant loses
        # until the propensities have fallen through zero; the logistic takes
        # them there, and each round is the scalar rule's
        params = GameParams(4, 1, 0.1, 10, BASIC)
        q = AllEqual(0.05).population(params, np.random.default_rng(0))
        model = Logistic(0.01)
        rng = np.random.default_rng(2)
        for _ in range(50):
            new, entered, m = play_round(q, params, model, rng)
            assert new.tolist() == [update_propensity(qi, bool(ei), m, params) for qi, ei in zip(q, entered)]
            q = new
        assert q.min() < 0
        p = model.prob(q)
        assert np.all((0 <= p) & (p <= 1))


def record_moments(q):
    """a and b as simulate records them: abm._moment_sums of each leaf, folded."""
    p = MODEL.prob(np.asarray(q, dtype=float))
    leaves = pairwise_leaves(p.size, abm._BLOCK)
    a_sums, b_sums = zip(*(_moment_sums(p[i:j], np.empty(j - i)) for i, j in leaves))
    return tuple(pairwise_fold(sums, p.size, abm._BLOCK) / p.size for sums in (a_sums, b_sums))


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
    @pytest.mark.parametrize("shape", [(7,), (9,), (8, 1), ()])
    def test_values_must_fill_the_cells(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"values shape {shape} does not match 8 cells")):
            DensityGrid(GridSpec(-1.0, 1.0, 8), np.ones(shape))

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
    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"t_end": 0.0}, "t_end must be positive"),
            ({"record_stride": 0}, "record_stride must be >= 1"),
            ({"snapshot_times": (0.0,)}, "snapshot_times given without a snapshot_grid"),
        ],
    )
    def test_rejects_bad_arguments(self, arguments, message):
        kwargs = {"t_end": 0.02, "seed": 0, **arguments}
        with pytest.raises(ValueError, match=message):
            simulate(make_params(n=10, c=5), MODEL, AllEqual(0.0), **kwargs)

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
        start = histogram_density(grid, Gaussian(0.0, 1.0).population(params, np.random.default_rng(10)))
        assert result.snapshots[0][1].values.tobytes() == start.values.tobytes()

    def test_snapshot_placement_matches_solve(self):
        # the same records on both engines, so the same requests land at the same times
        params = make_params(n=100, c=50)
        grid = GridSpec(-8.0, 8.0, 100)
        tau = params.tau
        requests = (0.0, 5e-13, 2 * tau - 1e-13, 2.5 * tau, 3 * tau, 3 * tau, 1.0)
        agents = simulate(params, MODEL, Gaussian(0.0, 1.0), 5 * tau, 4, 1, requests, grid)
        density = solve(
            Gaussian(0.0, 1.0).density(grid),
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
    def assert_matches_play_round_loop(params, model, init, record_stride, t_end=0.3, seed=11):
        grid = GridSpec(-8.0, 8.0, 64)
        snaps = (0.0, 0.1, 0.5)
        result = simulate(params, model, init, t_end, seed, record_stride, snaps, grid)
        rows, ref_snaps, ref_final = reference_simulate(
            params, model, init, t_end, seed, record_stride, snaps, grid
        )
        s = result.series
        for column, values in zip(rows.T, (s.t, s.a, s.b, s.m_frac)):
            assert column.tobytes() == values.tobytes()
        assert result.final.tobytes() == ref_final.tobytes()
        assert [t for t, _ in result.snapshots] == [t for t, _ in ref_snaps]
        for (_, got), (_, ref) in zip(result.snapshots, ref_snaps):
            assert got.values.tobytes() == ref.values.tobytes()
        return result

    @staticmethod
    def assert_every_unrecorded_decision_is_exact(params, model, record_stride, t_end=0.3, seed=11):
        # a record evaluates p of each leaf into the p buffer, and a round
        # that is not recorded evaluates the exact p of every agent of each
        # leaf, allocating, on enters' exact path
        counting = CountingLogistic(model.scale, model.center)
        simulate(params, counting, Gaussian(0.0, 1.5), t_end, seed, record_stride)
        n_rounds = math.ceil(t_end * params.rounds_per_unit - 1e-9)
        sizes = [j - i for i, j in pairwise_leaves(params.n_agents, abm._BLOCK)]
        assert counting.calls == [
            (size, n % record_stride == 0 or n == n_rounds) for n in range(n_rounds + 1) for size in sizes
        ]

    @pytest.mark.parametrize("record_stride", [1, 3])
    @BIT_IDENTITY_MODELS
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_bit_identical_to_play_round_loop(self, rule, model, init, record_stride):
        params = make_params(n=400, c=200, rule=rule)
        self.assert_matches_play_round_loop(params, model, init, record_stride)

    # N = 777 spans the leaves of numpy's pairwise sum: with a cap of 200,
    # 192, 192, 192, 96 and 105 agents; with a cap of 7, which the tree
    # never splits below (a node of at most 128 items is one leaf), seven
    # of 96 and one of 105.  Each round's update waits for the next round's
    # sweep or for the next record, so the strides place records around
    # those boundaries over the 30 rounds: every round, 3 and 7 (7 leaves 2
    # rounds before the final record, and both put the 0.1 snapshot on a
    # record right after unrecorded rounds), and 40, beyond the run, which
    # records only round 0 and the final round
    @pytest.mark.parametrize("block", [200, 7])
    @pytest.mark.parametrize("record_stride", [1, 3, 7, 40])
    @BIT_IDENTITY_MODELS
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_blocked_round_is_bit_identical(self, monkeypatch, rule, model, init, record_stride, block):
        monkeypatch.setattr(abm, "_BLOCK", block)
        assert len({j - i for i, j in pairwise_leaves(777, block)}) > 1
        params = make_params(n=777, c=388, rule=rule)
        self.assert_matches_play_round_loop(params, model, init, record_stride)

    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_multi_block_run_is_bit_identical(self, rule):
        # four leaves under the module's own cap, 32768, 32776, 32768 and
        # 32777 agents, over recorded and unrecorded rounds
        n = 2 * abm._BLOCK + 17
        params = make_params(n=n, c=n // 2, h=1e-4, rule=rule)
        self.assert_matches_play_round_loop(params, Logistic(1.3, 0.2), Gaussian(0.0, 1.5), 2, t_end=0.05)

    @pytest.mark.parametrize("model", [MODEL, Logistic(1.3, 0.2)], ids=["standard", "affine"])
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_forced_exact_recheck_is_bit_identical(self, monkeypatch, rule, model):
        # every |t - 1| is at most inf, so every agent of every non-record
        # round takes its decision from the exact path
        monkeypatch.setattr(core, "_TIE", math.inf)
        params = make_params(n=400, c=200, rule=rule)
        self.assert_every_unrecorded_decision_is_exact(params, model, 3)
        self.assert_matches_play_round_loop(params, model, Gaussian(0.0, 1.5), 3)

    @pytest.mark.parametrize("block", [200, 7])
    @pytest.mark.parametrize("model", [MODEL, Logistic(1.3, 0.2)], ids=["standard", "affine"])
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_forced_exact_recheck_in_blocks_is_bit_identical(self, monkeypatch, rule, model, block):
        # the exact path of every leaf after the first indexes its own views
        monkeypatch.setattr(core, "_TIE", math.inf)
        monkeypatch.setattr(abm, "_BLOCK", block)
        params = make_params(n=777, c=388, rule=rule)
        self.assert_every_unrecorded_decision_is_exact(params, model, 3)
        self.assert_matches_play_round_loop(params, model, Gaussian(0.0, 1.5), 3)

    @pytest.mark.parametrize("record_stride", [1, 2])
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_signed_zeros_match_play_round_loop(self, rule, record_stride):
        # agents at -0.0 and +0.0 with p = 1/2, and c = N/2 so that m == c,
        # and with it gain == 0.0, is the likeliest round: whether a zero
        # keeps its sign then turns on each term's own sign, which the
        # update must reproduce to the bit, final q included.  Ten short
        # runs keep agents at zero through rounds of every sign of gain
        params = make_params(n=6, c=3, rule=rule)
        init = Explicit((-0.0, 0.0) * 3)
        m_frac = [
            self.assert_matches_play_round_loop(params, MODEL, init, record_stride, 0.05, seed).series.m_frac
            for seed in range(10)
        ]
        assert np.any(np.concatenate(m_frac) == 0.5)

    @pytest.mark.parametrize("block", [abm._BLOCK, 7])
    @pytest.mark.parametrize("record_stride", [1, 3])
    def test_one_probability_evaluation_per_round(self, monkeypatch, record_stride, block):
        # the exact p of the whole population is evaluated, into simulate's
        # buffer, once per record and never on other rounds, which draw
        # through model.enters; under a cap of 7 as well, where the 50
        # agents are still one leaf and records evaluate p on all at once
        monkeypatch.setattr(abm, "_BLOCK", block)
        model = CountingLogistic()
        params = make_params(n=50, c=25)
        result = simulate(params, model, Gaussian(0.0, 1.0), 0.12, 2, record_stride)
        n_records = len(result.series)
        assert n_records == (13 if record_stride == 1 else 5)
        assert [call for call in model.calls if call[0] == 50] == [(50, True)] * n_records

    @pytest.mark.parametrize("snapshot", [False, True], ids=["rounds", "snapshot"])
    @pytest.mark.parametrize("record_stride", [1, 3])
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_round_loop_allocates_no_agent_arrays(self, rule, record_stride, snapshot):
        # the run holds q (8 bytes per agent), entered (1 byte) and two
        # leaf-sized float buffers of at most a block each, which with the
        # rounds' small temporaries stay under three blocks; a snapshot bins
        # a block at a time, in under two more.  At n of four blocks a
        # further float array allocated in any round would add four blocks
        # to the peak
        n = 4 * abm._BLOCK + 17
        params = make_params(n=n, c=n // 2, h=1e-5, rule=rule)
        snapshots = ((0.03,), GridSpec(-8.0, 8.0, 800)) if snapshot else ((), None)
        tracemalloc.start()
        try:
            result = simulate(params, MODEL, AllEqual(0.0), 0.07, 3, record_stride, *snapshots)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.snapshots) == int(snapshot)
        assert peak < 9 * n + (5 if snapshot else 3) * 8 * abm._BLOCK

    def test_gaussian_start_holds_one_float_per_agent(self):
        # the draw is scaled and shifted in place
        n = 4 * abm._BLOCK + 17
        tracemalloc.start()
        try:
            Gaussian(0.3, 2.0).population(make_params(n=n, c=n // 2), np.random.default_rng(7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 8 * abm._BLOCK

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
        # a lattice start {mean + k*h}, which both rules must keep the population on
        q = Gaussian(mean, sd).population(params, np.random.default_rng(seed))
        init = Explicit(tuple(mean + np.round((q - mean) / h) * h))
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


    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_large_round_gain_locks_into_a_period_two_cycle(self, seed):
        # fictitious rule from the acceptance start: at N h = 24 one round's
        # gain overshoots capacity, so the crowd enters and stays out in turn
        # and m/N flips every round; at N h = 2 it settles without flipping
        init = Gaussian(0.0, 1.5).with_entry_fraction(MODEL, 0.2)

        def lag_one_autocorrelation(n_h):
            params = make_params(h=n_h / 1000, rule=FICT)
            m_frac = simulate(params, MODEL, init, t_end=2.0, seed=seed).series.m_frac[:200]
            return np.corrcoef(m_frac[:-1], m_frac[1:])[0, 1]

        assert lag_one_autocorrelation(24) < -0.9
        assert lag_one_autocorrelation(2) > -0.5

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

    def test_fictitious_ensemble_tracks_the_round_map(self, init_mean):
        # at N h = 1 the map keeps the agents' round length and drops only the
        # noise in m, so the ensemble's gap to it is replica noise; the sup
        # over 101 records of an error of one standard error may reach a few
        series = ensemble_run(ABM_FICT_PARAMS, MODEL, Gaussian(init_mean, INIT_SD), 0.1, 8, BASE_SEED)
        reference = fictitious_round_map(ABM_FICT_PARAMS, Gaussian(init_mean, INIT_SD), 0.1)
        assert ABM_FICT_PARAMS.n_agents * ABM_FICT_PARAMS.payoff_scale == 1.0
        assert series.t.size == reference.t.size == 101
        for column in ("a", "b"):
            band = 3.0 * np.max(getattr(series, f"stderr_{column}"))
            assert compare_series(series, reference, column).sup_norm <= band

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError, match="n_replicas must be >= 1, got 0"):
            ensemble_run(make_params(n=50, c=25), MODEL, Gaussian(0.0, 1.0), 0.05, 0, base_seed=0)
