import tracemalloc

import numpy as np
import pytest

from entrydyn.abm import Gaussian
from entrydyn.analysis import (
    FitError,
    MIN_FIT_POINTS,
    RATE_FACTOR,
    SORTING_EPSILON,
    aggregate_learning_fit,
    compare_series,
    fit_exponential_decay,
    learning_window,
    sorting_fit,
    within_factor,
)
from entrydyn.core import (
    BLOCK_AGENTS,
    GameParams,
    LearningRule,
    Logistic,
    aggregate_learning_rate,
    learning_constant,
    sorting_rate,
)
from entrydyn.grid import GridSpec
from entrydyn.observables import ObservableSeries

from conftest import GRID, MODEL, PDE_PARAMS, CountingLogistic

BASIC = LearningRule.BASIC_REINFORCEMENT
FICT = LearningRule.FICTITIOUS_STOCHASTIC
PARAMS = GameParams(1000, 500, 0.01, 100, BASIC)


def decay_series(rate_a=10.0, rate_b=2.0, a0=0.2, t_end=1.0, dt=0.01):
    t = np.arange(0.0, t_end + dt / 2, dt)
    a = PARAMS.kappa + (a0 - PARAMS.kappa) * np.exp(-rate_a * t)
    b = 0.1 * np.exp(-rate_b * t)
    return ObservableSeries(t=t, a=a, b=b)


class TestFitExponentialDecay:
    def test_exact_exponential_recovered(self):
        t = np.linspace(0.0, 1.0, 50)
        x = 0.5 + 0.3 * np.exp(-3.0 * t)
        fit = fit_exponential_decay(t, x, 0.5, (0.0, 1.0))
        assert fit.rate == pytest.approx(3.0, abs=1e-10)
        assert fit.log_amplitude == pytest.approx(np.log(0.3), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.tau == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert fit.n_points == 50

    def test_constant_gap_rejected(self):
        t = np.linspace(0.0, 1.0, 20)
        with pytest.raises(FitError, match="not positive"):
            fit_exponential_decay(t, np.full(20, 0.7), 0.5, (0.0, 1.0))

    def test_vanishing_gap_rejected(self):
        t = np.linspace(0.0, 1.0, 20)
        with pytest.raises(FitError, match="vanishes"):
            fit_exponential_decay(t, np.full(20, 0.5), 0.5, (0.0, 1.0))

    def test_growing_signal_rejected(self):
        t = np.linspace(0.0, 1.0, 20)
        x = 0.5 + 0.1 * np.exp(2.0 * t)
        with pytest.raises(FitError, match="not positive"):
            fit_exponential_decay(t, x, 0.5, (0.0, 1.0))

    def test_too_few_points_rejected(self):
        t = np.linspace(0.0, 1.0, 50)
        x = 0.5 + 0.3 * np.exp(-3.0 * t)
        with pytest.raises(FitError, match="need at least"):
            fit_exponential_decay(t, x, 0.5, (0.0, 3 * (t[1] - t[0])))
        assert MIN_FIT_POINTS == 5

    def test_noise_tolerance(self):
        # 1 percent multiplicative noise moves the fitted rate well under 5%
        rng = np.random.default_rng(7)
        rate = 4.0
        t = np.linspace(0.0, 3.0 / rate, 120)
        gap = 0.3 * np.exp(-rate * t) * (1.0 + 0.01 * rng.standard_normal(t.size))
        fit = fit_exponential_decay(t, 0.5 + gap, 0.5, (0.0, t[-1]))
        assert abs(fit.rate - rate) / rate <= 0.05

    def test_window_placement_invariance_on_clean_data(self):
        t = np.linspace(0.0, 1.0, 200)
        x = 0.5 + 0.3 * np.exp(-6.0 * t)
        early = fit_exponential_decay(t, x, 0.5, (0.05, 0.4))
        late = fit_exponential_decay(t, x, 0.5, (0.3, 0.9))
        assert abs(early.rate - late.rate) <= 1e-8

    def test_time_rescaling(self):
        t = np.linspace(0.0, 1.0, 60)
        x = 0.5 + 0.3 * np.exp(-5.0 * t)
        base = fit_exponential_decay(t, x, 0.5, (0.0, 1.0))
        halved = fit_exponential_decay(2.0 * t, x, 0.5, (0.0, 2.0))
        assert halved.rate == pytest.approx(base.rate / 2.0, rel=1e-12)


class TestLearningWindow:
    def test_crossings_match_analytic_thresholds(self):
        rate = 8.0
        dt = 1e-4
        t = np.arange(0.0, 0.5 + dt / 2, dt)
        x = 0.5 - 0.3 * np.exp(-rate * t)
        lo, hi = learning_window(t, x, 0.5)
        assert abs(lo - np.log(1.25) / rate) <= dt + 1e-9
        assert abs(hi - np.log(5.0) / rate) <= dt + 1e-9
        assert lo < hi

    def test_start_at_asymptote_rejected(self):
        t = np.linspace(0.0, 1.0, 30)
        with pytest.raises(FitError, match="asymptote"):
            learning_window(t, np.full(30, 0.5), 0.5)

    def test_unfinished_decay_rejected(self):
        t = np.linspace(0.0, 0.05, 30)
        x = 0.5 - 0.3 * np.exp(-8.0 * t)  # gap only falls to 67% of start
        with pytest.raises(FitError, match="never fell"):
            learning_window(t, x, 0.5)


class TestAggregateLearningFit:
    def test_closed_form_series_recovers_its_own_rate(self):
        c_p = 0.01
        predicted = aggregate_learning_rate(PARAMS, c_p)
        assert predicted == pytest.approx(c_p * PARAMS.r)
        t = np.arange(0.0, 1.0, 0.002)
        a = PARAMS.kappa + (0.2 - PARAMS.kappa) * np.exp(-predicted * t)
        series = ObservableSeries(t=t, a=a, b=np.zeros_like(t))
        fit = aggregate_learning_fit(series, PARAMS)
        assert fit.rate == pytest.approx(predicted, rel=1e-9)
        assert within_factor(fit.rate, predicted)


class TestSortingFit:
    def test_equilibrium_start_fits_b_directly(self):
        t = np.arange(0.0, 2.0, 0.01)
        series = ObservableSeries(
            t=t, a=np.full_like(t, PARAMS.kappa), b=0.25 * np.exp(-5.0 * t)
        )
        fit = sorting_fit(series, PARAMS)
        predicted = sorting_rate(PARAMS)
        assert predicted == pytest.approx(PARAMS.r * PARAMS.payoff_scale / 2.0)
        assert predicted == pytest.approx(5.0)
        assert fit.rate == pytest.approx(5.0, rel=1e-9)
        assert fit.window[0] == t[0]

    def test_window_opens_at_entry_agreement(self):
        series = decay_series(rate_a=10.0, rate_b=2.0, t_end=1.0, dt=0.01)
        fit = sorting_fit(series, PARAMS, epsilon=0.05)
        # e^{-10 t} < 0.05 first holds at t = 0.30
        assert fit.window[0] == pytest.approx(0.30, abs=1e-12)
        assert fit.rate == pytest.approx(2.0, rel=1e-6)

    def test_epsilon_controls_window_start(self):
        series = decay_series(rate_a=10.0, rate_b=2.0, t_end=1.0, dt=0.01)
        fit = sorting_fit(series, PARAMS, epsilon=0.5)
        # e^{-10 t} < 0.5 first holds at t = 0.07
        assert fit.window[0] == pytest.approx(0.07, abs=1e-12)

    def test_default_window_opens_at_sorting_epsilon(self):
        series = decay_series(rate_a=10.0, rate_b=2.0, t_end=1.0, dt=0.01)
        assert SORTING_EPSILON == 0.05
        assert sorting_fit(series, PARAMS) == sorting_fit(series, PARAMS, epsilon=SORTING_EPSILON)
        assert sorting_fit(series, PARAMS).window[0] == pytest.approx(0.30, abs=1e-12)

    def test_short_horizon_reports_needed_run_length(self):
        series = decay_series(rate_a=10.0, t_end=0.1, dt=0.002)
        with pytest.raises(FitError, match="never completed") as err:
            sorting_fit(series, PARAMS)
        assert "t_end" in str(err.value)


class TestWithinFactor:
    def test_band_edges_inclusive(self):
        assert within_factor(5.0, 10.0, 2.0)
        assert within_factor(20.0, 10.0, 2.0)
        assert not within_factor(4.999, 10.0, 2.0)
        assert not within_factor(20.001, 10.0, 2.0)

    def test_default_band_is_rate_factor(self):
        assert RATE_FACTOR == 2.0
        assert within_factor(5.0, 10.0) and within_factor(20.0, 10.0)
        assert not within_factor(4.999, 10.0) and not within_factor(20.001, 10.0)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            within_factor(1.0, 1.0, 0.5)


class TestCompareSeries:
    def test_identical_series_agree(self):
        series = decay_series()
        result = compare_series(series, series, column="a")
        assert result.sup_norm == 0.0
        assert result.rmse == 0.0
        assert result.n_points == len(series)

    def test_constant_offset_is_the_sup(self):
        series = decay_series()
        shifted = ObservableSeries(t=series.t, a=series.a + 0.01, b=series.b)
        result = compare_series(series, shifted, column="a")
        assert result.sup_norm == pytest.approx(0.01, abs=1e-12)
        assert result.rmse == pytest.approx(0.01, abs=1e-12)

    def test_symmetry(self):
        first = decay_series(rate_a=10.0)
        second = decay_series(rate_a=9.0)
        forward = compare_series(first, second, column="a")
        backward = compare_series(second, first, column="a")
        assert forward.sup_norm == pytest.approx(backward.sup_norm, abs=1e-15)

    def test_interpolates_onto_coarser_grid(self):
        def series_on(n):
            t = np.linspace(0.0, 1.0, n)
            return ObservableSeries(
                t=t, a=0.5 - 0.3 * np.exp(-3.0 * t), b=0.1 * np.exp(-t)
            )

        result = compare_series(series_on(101), series_on(11), column="a")
        assert result.n_points == 11
        assert result.sup_norm <= 1e-6

    def test_b_column_and_missing_column(self):
        series = decay_series()
        assert compare_series(series, series, column="b").sup_norm == 0.0
        with pytest.raises(ValueError, match="missing"):
            compare_series(series, series, column="m_frac")

    @pytest.mark.parametrize("swap", [False, True])
    def test_series_without_a_record_in_the_overlap(self, swap):
        # the overlap is [0.2, 0.8]: only the second series has records in it
        first = ObservableSeries(t=np.array([0.0, 1.0]), a=np.array([0.0, 1.0]), b=np.zeros(2))
        t = np.array([0.2, 0.5, 0.8])
        second = ObservableSeries(t=t, a=t + 0.01, b=np.zeros(3))
        pair = (second, first) if swap else (first, second)
        result = compare_series(*pair, column="a")
        assert result.n_points == 3
        assert result.sup_norm == pytest.approx(0.01, abs=1e-12)

    def test_disjoint_spans_rejected(self):
        base = decay_series(t_end=1.0)
        late = ObservableSeries(t=base.t + 5.0, a=base.a, b=base.b)
        with pytest.raises(ValueError, match="overlap"):
            compare_series(base, late)


class TestLearningConstant:
    def test_density_and_sample_estimates_agree(self, init_mean):
        density = Gaussian(init_mean, 1.5).density(GRID)
        from_density = learning_constant(density.centers(), MODEL, BASIC, density.values * density.dq)
        rng = np.random.default_rng(11)
        draws = init_mean + 1.5 * rng.standard_normal(200_000)
        from_sample = learning_constant(draws, MODEL, BASIC)
        assert from_density == pytest.approx(from_sample, abs=5e-4)
        assert 0.0 < from_density < 0.25

    def test_point_mass_value(self):
        # all agents at p = 0.2: c_p = p^2 (1 - p) = 0.032
        q = np.full(100, float(np.log(0.2 / 0.8)))
        value = learning_constant(q, MODEL, BASIC)
        assert value == pytest.approx(0.032, abs=1e-12)

    def test_one_probability_evaluation_same_value(self):
        model = CountingLogistic(1.3, 0.2)
        q = np.random.default_rng(4).normal(0.0, 2.0, 1000)
        value = learning_constant(q, model, BASIC)
        assert len(model.calls) == 1
        plain = Logistic(1.3, 0.2)
        assert value == float(np.mean(plain.dprob(q) * plain.prob(q)))

    @pytest.mark.parametrize("rule", [BASIC, FICT], ids=["basic", "fictitious"])
    # the steep logistic's p rounds to exactly 1, and p' to 0, above q = 2.84
    @pytest.mark.parametrize(
        "model", [MODEL, Logistic(1.3, 0.2), Logistic(0.05, 1.0)], ids=["standard", "affine", "steep"]
    )
    @pytest.mark.parametrize(
        "size, on_grid",
        [
            *((size, False) for size in (1, *(BLOCK_AGENTS + k for k in (-1, 0, 1)), 3 * BLOCK_AGENTS + 5)),
            *((cells, True) for cells in (2, 800, 70_001)),
        ],
    )
    def test_blocked_value_is_bit_identical(self, model, size, on_grid, rule):
        # the agents' mean and a density's sum against its cell masses,
        # each against the one-expression form of the rule's E[w p'],
        # w = p (basic) or 1 (fictitious)
        if on_grid:
            density = Gaussian(-3.0, 1.5).density(GridSpec(-6.0, 6.0, size))
            q, weights = density.centers(), density.values * density.dq
        else:
            q, weights = np.abs(np.random.default_rng(size).normal(0.5, 2.0, size)) - 1.0, None
        if rule is BASIC:
            p = model.prob(q)
            terms = model.dprob(q, p) * p
        else:
            terms = model.dprob(q)
        expected = np.mean(terms) if weights is None else terms @ weights
        value = learning_constant(q, model, rule, weights)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("rule", [BASIC, FICT], ids=["basic", "fictitious"])
    @pytest.mark.parametrize("model", [Logistic(1.3, 0.2), MODEL], ids=["logistic", "standard"])
    def test_memory_beyond_the_population(self, model, rule):
        # p'(q) p(q), or p'(q), is formed a leaf at a time in one buffer of
        # p(q), at most a block, and with dprob's temporary stays under
        # three blocks.  A float array of q's size would add four blocks at
        # n of four blocks
        n = 4 * BLOCK_AGENTS + 17
        q = np.abs(np.random.default_rng(0).normal(0.5, 2.0, n))
        tracemalloc.start()
        try:
            learning_constant(q, model, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * BLOCK_AGENTS

    def test_predicted_rate_matches_acceptance_scenario(self, acceptance_f0):
        f0 = acceptance_f0
        c_p = learning_constant(f0.centers(), MODEL, BASIC, f0.values * f0.dq)
        assert c_p * PDE_PARAMS.r == pytest.approx(36.8, abs=1.0)
