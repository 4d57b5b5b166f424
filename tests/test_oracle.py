import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from entrydyn.core import DomainError, ErevRothRatio, GameParams, LearningRule, Logistic
from entrydyn.oracle import (
    MAX_AGENTS,
    RoundLaw,
    _patterns,
    enumerate_round,
    expected_drift_check,
    poisson_binomial_pmf,
    random_instance,
)

BASIC = LearningRule.BASIC_REINFORCEMENT
FICT = LearningRule.FICTITIOUS_STOCHASTIC
MODEL = Logistic(1.0, 0.0)


def table_round(q, params, model):
    """Brute-force reference: the round as a (2^N, N) table over every pattern.

    Returns the law and the table of post-round propensities q_next, which
    lists every (pattern, agent) cell a round can reach.
    """
    n = q.size
    p = np.atleast_1d(model.prob(q))
    codes = np.arange(2**n, dtype=np.int64)
    patterns = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
    weights = np.prod(np.where(patterns > 0, p, 1.0 - p), axis=1)
    m = patterns.sum(axis=1)
    m_probs = np.bincount(m.astype(int), weights=weights, minlength=n + 1)
    h = params.payoff_scale
    gain = h * (params.capacity - m)
    if params.rule is BASIC:
        q_next = q[None, :] + gain[:, None] * patterns
    else:
        q_next = q[None, :] + gain[:, None] - h * (1.0 - patterns)
    p_next = model.prob(q_next)
    expected_a = float(weights @ p_next.mean(axis=1))
    expected_b = float(weights @ (p_next * (1.0 - p_next)).mean(axis=1))
    return RoundLaw(m_probs, weights @ q_next, expected_a, expected_b, p), q_next


def vector_pmf(p):
    """Reference: the Poisson-binomial recurrence on numpy vectors."""
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for pi in p:
        pmf[1:] = pmf[1:] * (1.0 - pi) + pmf[:-1] * pi
        pmf[0] *= 1.0 - pi
    return pmf


class Recording:
    """Delegates to a probability model and keeps every propensity it is asked about."""

    def __init__(self, model):
        self.model = model
        self.seen = []

    def prob(self, q, out=None):
        self.seen.append(np.array(q, dtype=float).ravel())
        return self.model.prob(q, out=out)


@st.composite
def instances(draw, max_agents=10):
    n = draw(st.integers(1, max_agents))
    h = draw(st.floats(0.005, 0.2))
    params = GameParams(n, draw(st.integers(1, n)), h, 10, draw(st.sampled_from(LearningRule)))
    if draw(st.booleans()):
        model = Logistic(draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0)))
        q = draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
        return np.array(q), params, model
    # lifted as in random_instance, so no round leaves the ratio model's domain
    q = draw(st.lists(st.floats(0.0, 8.0), min_size=n, max_size=n))
    return h * (n + 1.0) + np.array(q), params, ErevRothRatio(draw(st.floats(0.5, 2.0)))


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

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_matches_table_reference(self, instance):
        # the reference's E[q'] carries q * (sum of weights - 1) of round-off,
        # a few 1e-15 at these |q|; 1e-13 leaves room for it
        q, params, model = instance
        law = enumerate_round(q, params, model)
        ref, _ = table_round(q, params, model)
        assert np.max(np.abs(law.m_probs - ref.m_probs)) <= 1e-13
        assert np.max(np.abs(law.expected_propensity - ref.expected_propensity)) <= 1e-13
        assert abs(law.expected_a - ref.expected_a) <= 1e-13
        assert abs(law.expected_b - ref.expected_b) <= 1e-13

    def test_model_sees_exactly_the_reachable_cells(self):
        # one call on q, one batched call on the (m, e) cells: together they
        # cover every post-round propensity of the table and nothing else
        rng = np.random.default_rng(41)
        for _ in range(200):
            q, params, model = random_instance(rng, max_agents=8)
            recording = Recording(model)
            enumerate_round(q, params, recording)
            _, q_next = table_round(q, params, model)
            assert len(recording.seen) == 2
            assert set(np.concatenate(recording.seen).tolist()) == set(q_next.ravel().tolist())

    def test_ratio_domain_error_parity(self):
        # propensities on the payoff lattice put some cells at or below zero
        rng = np.random.default_rng(43)
        raised = 0
        for i in range(400):
            n = int(rng.integers(1, 8))
            h = float(rng.uniform(0.01, 0.2))
            params = GameParams(n, int(rng.integers(1, n + 1)), h, 10, (BASIC, FICT)[i % 2])
            q = h * rng.integers(0, n + 2, size=n)
            model = ErevRothRatio(float(rng.uniform(0.5, 2.0)))
            try:
                table_round(q, params, model)
            except DomainError:
                raised += 1
                with pytest.raises(DomainError):
                    enumerate_round(q, params, model)
            else:
                enumerate_round(q, params, model)
        assert 0 < raised < 400

    def test_carries_its_probabilities(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            q, params, model = random_instance(rng)
            law = enumerate_round(q, params, model)
            assert law.probs.tobytes() == np.atleast_1d(model.prob(q)).tobytes()

    def test_pattern_tables_are_cached_read_only(self):
        tables = _patterns(5)
        assert _patterns(5) is tables
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0

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
            # np.maximum keeps a NaN gap, so a NaN fails the bound
            worst = np.maximum(worst, expected_drift_check(q, params, model).max_abs_gap)
        assert worst <= 1e-12

    def test_at_most_two_probability_calls(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            q, params, model = random_instance(rng)
            recording = Recording(model)
            expected_drift_check(q, params, recording)
            assert len(recording.seen) <= 2

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

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf(np.array([0.3, np.nan, 0.5]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=MAX_AGENTS))
    def test_bit_identical_to_vector_recurrence(self, probs):
        p = np.array(probs)
        assert poisson_binomial_pmf(p).tobytes() == vector_pmf(p).tobytes()
