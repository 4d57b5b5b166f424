import numpy as np
import pytest
from scipy.stats import binom

from entrydyn import (
    GameParams,
    LearningRule,
    Logistic,
    enumerate_round,
    expected_drift_check,
    poisson_binomial_pmf,
)
from entrydyn.oracle import MAX_AGENTS, random_instance

BASIC = LearningRule.BASIC_REINFORCEMENT
FICT = LearningRule.FICTITIOUS_STOCHASTIC
MODEL = Logistic(1.0, 0.0)


class TestEnumerateRound:
    def test_three_fair_agents(self):
        params = GameParams(3, 2, 0.1, 10, BASIC)
        law = enumerate_round(np.zeros(3), params, MODEL)
        expected = np.array([1, 3, 3, 1]) / 8.0
        assert np.max(np.abs(law.m_probs - expected)) <= 1e-15

    def test_sole_saturated_entrant_is_fixed(self):
        # p(40) is exactly 1.0 in floating point, m=1=c, payoff 0
        params = GameParams(1, 1, 0.01, 10, BASIC)
        law = enumerate_round(np.array([40.0]), params, MODEL)
        assert law.m_probs[1] == pytest.approx(1.0, abs=1e-15)
        assert law.expected_propensity[0] == pytest.approx(40.0, abs=1e-12)

    def test_deterministic_overcrowding(self):
        params = GameParams(2, 1, 0.01, 10, BASIC)
        q = np.array([40.0, 40.0])
        law = enumerate_round(q, params, MODEL)
        assert law.m_probs[2] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(law.expected_propensity, q - 0.01, atol=1e-12)

    def test_identical_probabilities_give_binomial(self):
        for n in (2, 5, 12):
            for p in (0.2, 0.5, 0.83):
                q = np.full(n, MODEL.center + MODEL.scale * np.log(p / (1 - p)))
                params = GameParams(n, n, 0.05, 10, BASIC)
                law = enumerate_round(q, params, MODEL)
                assert np.max(np.abs(law.m_probs - binom.pmf(np.arange(n + 1), n, p))) <= 1e-12

    def test_law_is_a_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q, params, model = random_instance(rng)
            law = enumerate_round(q, params, model)
            assert np.all(law.m_probs >= 0)
            assert abs(law.m_probs.sum() - 1.0) <= 1e-12

    def test_matches_poisson_binomial_recurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q, params, model = random_instance(rng)
            law = enumerate_round(q, params, model)
            probs = np.atleast_1d(model.prob(np.asarray(q)))
            assert np.max(np.abs(law.m_probs - poisson_binomial_pmf(probs))) <= 1e-12

    def test_single_agent_moments_by_hand(self):
        # N=1, Basic: q' = q + h(c-1) on entry else q
        h, c = 0.1, 1
        params = GameParams(1, c, h, 10, BASIC)
        q = 0.3
        p = MODEL.prob(q)
        law = enumerate_round(np.array([q]), params, MODEL)
        expected_a = p * MODEL.prob(q + h * (c - 1)) + (1 - p) * MODEL.prob(q)
        assert law.expected_a == pytest.approx(expected_a, abs=1e-14)
        w = lambda x: MODEL.prob(x) * (1 - MODEL.prob(x))
        expected_b = p * w(q + h * (c - 1)) + (1 - p) * w(q)
        assert law.expected_b == pytest.approx(expected_b, abs=1e-14)

    def test_rejects_large_populations(self):
        n = MAX_AGENTS + 1
        params = GameParams(n, 2, 0.1, 10, BASIC)
        with pytest.raises(ValueError):
            enumerate_round(np.zeros(n), params, MODEL)


class TestExpectedDriftCheck:
    def test_two_agent_value_by_hand(self):
        # E[dq_1] = h*p_1*(c - 1 - p_2) = 0.1*0.5*(1 - 1 - 0.5)
        params = GameParams(2, 1, 0.1, 10, BASIC)
        check = expected_drift_check(np.zeros(2), params, MODEL)
        assert check.enumerated[0] == pytest.approx(-0.025, abs=1e-14)
        assert check.predicted[0] == pytest.approx(-0.025, abs=1e-14)

    def test_never_entering_agent_is_frozen(self):
        params = GameParams(3, 2, 0.1, 10, BASIC)
        q = np.array([-40.0, 0.2, 0.9])  # p(-40) = 0 exactly in floating point
        check = expected_drift_check(q, params, MODEL)
        assert check.enumerated[0] == pytest.approx(0.0, abs=1e-15)

    def test_fictitious_single_agent_balance(self):
        # E[dq] = h(c - E[m]) - h(1-p) = 0.1*(1-0.5) - 0.1*0.5 = 0
        params = GameParams(1, 1, 0.1, 10, FICT)
        check = expected_drift_check(np.zeros(1), params, MODEL)
        assert check.enumerated[0] == pytest.approx(0.0, abs=1e-14)
        assert check.max_abs_gap <= 1e-14

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(300):
            q, params, model = random_instance(rng)
            worst = max(worst, expected_drift_check(q, params, model).max_abs_gap)
        assert worst <= 1e-12

    def test_carries_the_enumerated_law(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            q, params, model = random_instance(rng)
            law = expected_drift_check(q, params, model).law
            ref = enumerate_round(q, params, model)
            assert law.m_probs.tobytes() == ref.m_probs.tobytes()
            assert law.expected_propensity.tobytes() == ref.expected_propensity.tobytes()
            assert (law.expected_a, law.expected_b) == (ref.expected_a, ref.expected_b)


class TestPoissonBinomial:
    def test_homogeneous_case(self):
        pmf = poisson_binomial_pmf(np.full(6, 0.3))
        assert np.max(np.abs(pmf - binom.pmf(np.arange(7), 6, 0.3))) <= 1e-14

    def test_degenerate_probabilities(self):
        pmf = poisson_binomial_pmf(np.array([1.0, 0.0, 1.0]))
        assert np.allclose(pmf, [0, 0, 1, 0], atol=1e-15)
