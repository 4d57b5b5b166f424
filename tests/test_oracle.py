from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from entrydyn.core import GameParams, LearningRule, Logistic, learning_constant
from entrydyn.oracle import (
    BLOCK_ELEMENTS,
    MAX_AGENTS,
    Instances,
    _patterns,
    blocks,
    enumerate_block,
    poisson_binomial_rows,
    random_instance,
)

from conftest import instance_tuples

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
    law = SimpleNamespace(m_probs=m_probs, drift=weights @ q_next - q, expected_a=expected_a, expected_b=expected_b)
    return law, q_next


def loop_round(q, params, model):
    """Reference: the enumeration of one instance on its own, (N, 2^N) arrays,
    with the closed-form drift; each row of a block's law must match it bit
    for bit."""
    n = q.size
    p = np.atleast_1d(model.prob(q))
    order, entered, starts = _patterns(n)
    weights = np.ones(1)
    for pi in p.tolist():
        weights = np.concatenate((weights * (1.0 - pi), weights * pi))
    weights = weights[order]
    m_probs = np.add.reduceat(weights, starts)
    enter_law = np.add.reduceat(entered * weights, starts, axis=1).T
    stay_law = m_probs[:, None] - enter_law
    h, c = params.payoff_scale, params.capacity
    gain = h * (c - np.arange(n + 1))
    moved = q + gain[:, None]
    if params.rule is BASIC:
        drift = gain @ enter_law
        p_next = np.concatenate((model.prob(moved[1:]), p[None, :].repeat(n, axis=0)))
        predicted = h * p * (c - 1.0 - (p.sum() - p))
    else:
        drift = gain @ enter_law + (gain - h) @ stay_law
        p_next = model.prob(np.concatenate((moved[1:], moved[:-1] - h)))
        predicted = h * (c - p.sum()) - h * (1.0 - p)
    cell_law = np.concatenate((enter_law[1:], stay_law[:-1]))
    expected_a = float(np.vdot(cell_law, p_next)) / n
    expected_b = float(np.vdot(cell_law, p_next * (1.0 - p_next))) / n
    return SimpleNamespace(
        m_probs=m_probs, drift=drift, expected_a=expected_a, expected_b=expected_b,
        probs=p, predicted_drift=predicted,
    )


def reference_random_instance(rng, max_agents, count):
    """Reference: random_instance's chunk drawn through Generator.integers,
    uniform and normal with size=, column by column."""
    n = rng.integers(1, max_agents + 1, size=count)
    capacity = rng.integers(1, n + 1, size=count)
    # h, rule, scale, center
    u = rng.uniform([0.005, 0.0, 0.5, -1.0], [0.2, 1.0, 2.0, 1.0], size=(count, 4))
    h, rule, scale, center = u.T
    q = rng.normal(center[:, None], 2.0 * scale[:, None], size=(count, max_agents))
    return Instances(n, capacity, h, rule >= 0.5, scale, center, q)


def drawn(seed, count, max_agents=MAX_AGENTS):
    """count instances of one chunk drawn at seed, as (propensities, params, model) tuples."""
    return instance_tuples(random_instance(np.random.default_rng(seed), max_agents, count))


LAW_FIELDS = ("m_probs", "drift", "expected_a", "expected_b", "probs", "predicted_drift")


def assert_same_row(law, b, ref):
    """Row b of a block's law has the bytes of ref, one instance's law."""
    for name in LAW_FIELDS:
        assert np.asarray(getattr(law, name)[b]).tobytes() == np.asarray(getattr(ref, name)).tobytes(), name


def vector_pmf(p):
    """Reference: the Poisson-binomial recurrence on numpy vectors."""
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for pi in p:
        pmf[1:] = pmf[1:] * (1.0 - pi) + pmf[:-1] * pi
        pmf[0] *= 1.0 - pi
    return pmf


@pytest.fixture
def evaluations(monkeypatch):
    """Every stacked evaluation of the probability model from here on, as
    the propensities of each row."""
    seen = []
    real = Logistic.prob_rows

    def record(q, *args, **kwargs):
        seen.append(np.array(q, dtype=float).reshape(len(q), -1))
        return real(q, *args, **kwargs)

    monkeypatch.setattr(Logistic, "prob_rows", staticmethod(record))
    return seen


@st.composite
def instances(draw, max_agents=10, min_agents=1):
    n = draw(st.integers(min_agents, max_agents))
    h = draw(st.floats(0.005, 0.2))
    params = GameParams(n, draw(st.integers(1, n)), h, 10, draw(st.sampled_from(LearningRule)))
    model = Logistic(draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0)))
    q = draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
    return np.array(q), params, model


class TestRandomInstance:
    def test_draws_the_generator_forms(self):
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            # consecutive chunks of several sizes continue one stream
            for count, max_agents in ((500, MAX_AGENTS), (1, MAX_AGENTS), (37, 5)):
                chunk = random_instance(rng, max_agents, count)
                ref = reference_random_instance(ref_rng, max_agents, count)
                assert len(chunk) == count
                for name, column in vars(ref).items():
                    value = getattr(chunk, name)
                    assert (value.dtype, value.shape) == (column.dtype, column.shape), name
                    assert value.tobytes() == column.tobytes(), name

    def test_a_fixed_number_of_generator_calls(self):
        class Counting:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def __getattr__(self, name):
                self.calls += 1
                return getattr(self.rng, name)

        for count in (1, 2, 512):
            rng = Counting(np.random.default_rng(0))
            random_instance(rng, MAX_AGENTS, count)
            assert rng.calls == 4

    def test_marginals(self):
        count = 40_000
        chunk = random_instance(np.random.default_rng(7), MAX_AGENTS, count)
        n = chunk.n_agents
        # each N has count / 12 expected rows; 5 sd of the binomial count
        frequencies = np.bincount(n, minlength=MAX_AGENTS + 1)
        assert frequencies[0] == 0 and frequencies.size == MAX_AGENTS + 1
        expected = count / MAX_AGENTS
        assert np.all(np.abs(frequencies[1:] - expected) <= 5 * np.sqrt(expected * (1 - 1 / MAX_AGENTS)))
        assert np.all((1 <= chunk.capacity) & (chunk.capacity <= n))
        assert np.all((0.005 <= chunk.payoff_scale) & (chunk.payoff_scale < 0.2))
        # a share of one half has sd 0.0025 at this count
        assert abs(chunk.fictitious.mean() - 0.5) <= 0.0125
        assert np.all((0.5 <= chunk.scale) & (chunk.scale < 2.0))
        assert np.all((-1.0 <= chunk.center) & (chunk.center < 1.0))
        agents = np.arange(MAX_AGENTS) < n[:, None]
        q = chunk.propensities
        z = ((q - chunk.center[:, None]) / (2.0 * chunk.scale[:, None]))[agents]
        assert abs(z.mean()) <= 0.02 and abs(z.std() - 1.0) <= 0.02


class TestEnumerateRound:
    def test_bit_identical_to_loop_reference(self):
        for q, params, model in drawn(53, 300):
            assert_same_row(enumerate_block([(q, params, model)]), 0, loop_round(q, params, model))

    def test_three_fair_agents(self):
        params = GameParams(3, 2, 0.1, 10, BASIC)
        law = enumerate_block([(np.zeros(3), params, MODEL)])
        expected = np.array([1, 3, 3, 1]) / 8.0
        assert np.max(np.abs(law.m_probs[0] - expected)) <= 1e-15

    def test_sole_saturated_entrant_is_fixed(self):
        # p(40) is exactly 1.0 in floating point, m=1=c, payoff 0
        params = GameParams(1, 1, 0.01, 10, BASIC)
        q = np.array([40.0])
        law = enumerate_block([(q, params, MODEL)])
        assert law.m_probs[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert (q + law.drift[0])[0] == pytest.approx(40.0, abs=1e-12)

    def test_deterministic_overcrowding(self):
        params = GameParams(2, 1, 0.01, 10, BASIC)
        q = np.array([40.0, 40.0])
        law = enumerate_block([(q, params, MODEL)])
        assert law.m_probs[0, 2] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(q + law.drift[0], q - 0.01, atol=1e-12)

    def test_identical_probabilities_give_binomial(self):
        for n in (2, 5, 12):
            for p in (0.2, 0.5, 0.83):
                q = np.full(n, MODEL.center + MODEL.scale * np.log(p / (1 - p)))
                params = GameParams(n, n, 0.05, 10, BASIC)
                law = enumerate_block([(q, params, MODEL)])
                assert np.max(np.abs(law.m_probs[0] - binom.pmf(np.arange(n + 1), n, p))) <= 1e-12

    def test_law_is_a_distribution(self):
        for instance in drawn(3, 100):
            law = enumerate_block([instance])
            assert np.all(law.m_probs[0] >= 0)
            assert abs(law.m_probs[0].sum() - 1.0) <= 1e-12

    def test_matches_poisson_binomial_recurrence(self):
        for q, params, model in drawn(11, 200):
            law = enumerate_block([(q, params, model)])
            probs = np.atleast_1d(model.prob(np.asarray(q)))
            assert np.max(np.abs(law.m_probs[0] - poisson_binomial_rows(probs[None])[0])) <= 1e-12

    def test_single_agent_moments_by_hand(self):
        # N=1, Basic: q' = q + h(c-1) on entry else q
        h, c = 0.1, 1
        params = GameParams(1, c, h, 10, BASIC)
        q = 0.3
        p = MODEL.prob(q)
        law = enumerate_block([(np.array([q]), params, MODEL)])
        expected_a = p * MODEL.prob(q + h * (c - 1)) + (1 - p) * MODEL.prob(q)
        assert law.expected_a[0] == pytest.approx(expected_a, abs=1e-14)
        w = lambda x: MODEL.prob(x) * (1 - MODEL.prob(x))
        expected_b = p * w(q + h * (c - 1)) + (1 - p) * w(q)
        assert law.expected_b[0] == pytest.approx(expected_b, abs=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_matches_table_reference(self, instance):
        # the reference's drift carries q * (sum of weights - 1) of round-off,
        # a few 1e-15 at these |q|; 1e-13 leaves room for it
        law = enumerate_block([instance])
        ref, _ = table_round(*instance)
        assert np.max(np.abs(law.m_probs[0] - ref.m_probs)) <= 1e-13
        assert np.max(np.abs(law.drift[0] - ref.drift)) <= 1e-13
        assert abs(law.expected_a[0] - ref.expected_a) <= 1e-13
        assert abs(law.expected_b[0] - ref.expected_b) <= 1e-13

    def test_model_sees_exactly_the_reachable_cells(self, evaluations):
        # one evaluation in a block, on q and the (m, e) cells together:
        # row b covers every post-round propensity of instance b's table
        # and nothing else
        chunk = random_instance(np.random.default_rng(41), 8, 200)
        tables = [table_round(*instance)[1] for instance in instance_tuples(chunk)]
        for rows in blocks(chunk):
            evaluations.clear()
            enumerate_block(chunk.take(rows))
            [points] = evaluations
            assert len(points) == len(rows)
            for b, row in zip(rows, points):
                assert set(row.tolist()) == set(tables[b].ravel().tolist())

    def test_carries_its_probabilities(self):
        for q, params, model in drawn(47, 40):
            law = enumerate_block([(q, params, model)])
            assert law.probs[0].tobytes() == np.atleast_1d(model.prob(q)).tobytes()

    def test_pattern_tables_are_cached_read_only(self):
        tables = _patterns(5)
        assert _patterns(5) is tables
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0

    def test_rejects_a_propensity_count_other_than_n_agents(self):
        params = GameParams(3, 2, 0.1, 10, BASIC)
        for q in (np.zeros(2), np.zeros(4), np.zeros((2, 3))):
            with pytest.raises(ValueError, match=f"got {q.size} propensities for n_agents=3"):
                enumerate_block([(q, params, MODEL)])
        # a later instance is checked against its own n_agents
        with pytest.raises(ValueError, match="got 2 propensities for n_agents=3"):
            enumerate_block([(np.zeros(3), params, MODEL), (np.zeros(2), params, MODEL)])

    def test_rejects_large_populations(self):
        n = MAX_AGENTS + 1
        params = GameParams(n, 2, 0.1, 10, BASIC)
        with pytest.raises(ValueError):
            enumerate_block([(np.zeros(n), params, MODEL)])


class TestExpectedDriftCheck:
    def test_two_agent_value_by_hand(self):
        # E[dq_1] = h*p_1*(c - 1 - p_2) = 0.1*0.5*(1 - 1 - 0.5)
        params = GameParams(2, 1, 0.1, 10, BASIC)
        law = enumerate_block([(np.zeros(2), params, MODEL)])
        assert law.drift[0, 0] == pytest.approx(-0.025, abs=1e-14)
        assert law.predicted_drift[0, 0] == pytest.approx(-0.025, abs=1e-14)

    def test_never_entering_agent_is_frozen(self):
        params = GameParams(3, 2, 0.1, 10, BASIC)
        q = np.array([-40.0, 0.2, 0.9])  # p(-40) = 0 exactly in floating point
        law = enumerate_block([(q, params, MODEL)])
        assert law.drift[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_fictitious_single_agent_balance(self):
        # E[dq] = h(c - E[m]) - h(1-p) = 0.1*(1-0.5) - 0.1*0.5 = 0
        params = GameParams(1, 1, 0.1, 10, FICT)
        law = enumerate_block([(np.zeros(1), params, MODEL)])
        assert law.drift[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert law.max_abs_gap <= 1e-14

    def test_identity_on_random_instances(self):
        worst = 0.0
        for instance in drawn(17, 300):
            # np.maximum keeps a NaN gap, so a NaN fails the bound
            worst = np.maximum(worst, enumerate_block([instance]).max_abs_gap)
        assert worst <= 1e-12

    @pytest.mark.parametrize("rule", [BASIC, FICT], ids=["basic", "fictitious"])
    def test_identity_holds_far_from_zero(self, rule):
        # at q near 1e6 one ulp of q is 1.2e-10, so a drift formed as
        # E[q'] - q would miss the closed form by some 5e-11; the enumerated
        # drift is summed from the gains alone and keeps the identity's own
        # round-off
        model = Logistic(1.0, 1e6)
        q = 1e6 + 1.5 * np.random.default_rng(67).standard_normal(8)
        params = GameParams(8, 3, 0.05, 10, rule)
        law = enumerate_block([(q, params, model)])
        assert law.max_abs_gap <= 1e-15
        assert_same_row(law, 0, loop_round(q, params, model))

    def test_one_probability_call_per_block(self, evaluations):
        # whatever the block's size
        chunk = random_instance(np.random.default_rng(31), MAX_AGENTS, 100)
        for instance in instance_tuples(chunk):
            evaluations.clear()
            enumerate_block([instance])
            assert len(evaluations) == 1
        for rows in blocks(chunk):
            evaluations.clear()
            enumerate_block(chunk.take(rows))
            assert len(evaluations) == 1


class TestLearningLaw:
    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_one_round_change_of_a_by_rule(self, rule):
        # to first order in h one round moves a by
        # N h (kappa - a) E[w p'] - h E[w p' (1 - p)], with w = p under the
        # basic rule (an agent moves only when it enters) and w = 1 under
        # the fictitious rule (every agent moves), and E[w p'] is the rule's
        # learning constant; the relative gap to the enumerated change falls
        # in proportion to h
        q = -0.8 + 1.5 * np.random.default_rng(3).standard_normal(12)
        p = MODEL.prob(q)
        dp = MODEL.dprob(q, p)
        w = p if rule is BASIC else 1.0
        a, kappa = p.mean(), 6 / 12
        c_p = learning_constant(q, MODEL, rule)
        gaps = []
        for h in (0.02, 0.005, 0.00125):
            law = enumerate_block([(q, GameParams(12, 6, h, 100, rule), MODEL)])
            closed = 12 * h * (kappa - a) * c_p - h * np.mean(w * dp * (1.0 - p))
            gaps.append(abs(1.0 - closed / (law.expected_a[0] - a)))
        assert gaps[0] < 0.01
        assert gaps[1] <= gaps[0] / 3 and gaps[2] <= gaps[1] / 3


class TestRoundMapKernel:
    def test_agent_means_equal_the_enumerated_round(self):
        # the round map's kernel: agent i sees m_-i entrants among the others,
        # whose law is the recurrence over the other N - 1 probabilities; an
        # entrant moves to q_i + h (c - 1 - k), a stay-out stays at q_i under
        # the basic rule and moves there too under the fictitious rule. Its
        # agent means of p and p (1 - p) are the enumerated round's, with no
        # sum over the 2^N patterns
        chunk = random_instance(np.random.default_rng(3), 12, 512)
        worst, rules = 0.0, set()
        for rows in blocks(chunk):
            block = chunk.take(rows)
            law = enumerate_block(block)
            q, h, c = block.propensities, block.payoff_scale[:, None, None], block.capacity[:, None, None]
            size, n = q.shape
            p = block.prob(q)
            if n == 1:
                others = np.ones((size, 1, 1))  # m_-i = 0 surely
            else:
                others = np.stack([poisson_binomial_rows(np.delete(p, i, axis=1)) for i in range(n)], axis=1)
            entered = block.prob(q[:, :, None] + h * (c - 1.0 - np.arange(n)))
            stayed = entered if block.fictitious[0] else np.broadcast_to(p[:, :, None], entered.shape)
            enter_weight, stay_weight = p[:, :, None] * others, (1.0 - p[:, :, None]) * others
            for observable, expected in ((lambda x: x, law.expected_a), (lambda x: x * (1.0 - x), law.expected_b)):
                kernel = enter_weight * observable(entered) + stay_weight * observable(stayed)
                worst = max(worst, float(np.max(np.abs(kernel.sum(axis=(1, 2)) / n - expected))))
            rules.add(bool(block.fictitious[0]))
        assert rules == {False, True}
        assert worst <= 1e-14


@st.composite
def mixed_blocks(draw):
    """Instances of one N and one rule, their models mixed, as many as one
    block holds, one more, or one."""
    n = draw(st.sampled_from(range(1, MAX_AGENTS + 1)))
    rule = draw(st.sampled_from(LearningRule))
    cap = BLOCK_ELEMENTS >> n
    size = draw(st.sampled_from([1, cap, cap + 1]))
    distinct = []
    for _ in range(min(size, 4)):
        q, params, model = draw(instances(max_agents=n, min_agents=n))
        distinct.append((q, GameParams(n, params.capacity, params.payoff_scale, 10, rule), model))
    # a large block repeats the distinct instances in a drawn order
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(distinct), size=size)
    picks[: len(distinct)] = np.arange(len(distinct))
    return [distinct[k] for k in picks], cap


class TestBlocks:
    @settings(max_examples=25, deadline=None)
    @given(mixed_blocks())
    def test_block_rows_equal_single_instances(self, case):
        drawn, cap = case
        chunk = Instances.stack(drawn)
        split = list(blocks(chunk))
        assert [len(rows) for rows in split] == ([len(drawn)] if len(drawn) <= cap else [cap, 1])
        # each distinct instance's own law and recurrence row, once
        singles = {}
        for instance in {id(instance): instance for instance in drawn}.values():
            single = enumerate_block([instance])
            singles[id(instance)] = single, poisson_binomial_rows(single.probs)[0]
        for rows in split:
            law = enumerate_block(chunk.take(rows))
            pmf = poisson_binomial_rows(law.probs)
            for b, row in enumerate(rows):
                single, single_pmf = singles[id(drawn[row])]
                for name in LAW_FIELDS:
                    assert getattr(law, name)[b].tobytes() == getattr(single, name)[0].tobytes(), name
                assert pmf[b].tobytes() == single_pmf.tobytes()

    @pytest.mark.parametrize("rule", [BASIC, FICT], ids=["basic", "fictitious"])
    def test_saturated_rows_equal_single_instances(self, rule):
        # far below and above the centre p is exactly 0 and 1, and the law
        # of such a row is a point mass; a block of those and of ordinary
        # rows gives each row its own law to the byte
        params = GameParams(4, 2, 0.05, 10, rule)
        rows = [
            (np.full(4, -800.0), params, MODEL),
            (np.full(4, 800.0), params, MODEL),
            (np.array([-800.0, 800.0, 0.3, -0.2]), params, Logistic(0.7, -0.4)),
            (np.array([1.0, -1.0, 40.0, -40.0]), params, Logistic(0.05, 1.0)),
        ]
        law = enumerate_block(rows)
        assert law.m_probs[0, 0] == 1.0 and law.m_probs[1, 4] == 1.0
        for b, instance in enumerate(rows):
            assert_same_row(law, b, enumerate_block([instance]))

    def test_groups_in_drawn_order(self):
        chunk = random_instance(np.random.default_rng(59), MAX_AGENTS, 600)
        split = list(blocks(chunk))
        assert sorted(np.concatenate(split).tolist()) == list(range(600))
        for rows in split:
            n, fictitious = chunk.n_agents[rows[0]], chunk.fictitious[rows[0]]
            assert np.all(chunk.n_agents[rows] == n) and np.all(chunk.fictitious[rows] == fictitious)
            assert len(rows) << n <= BLOCK_ELEMENTS
            assert rows.tolist() == sorted(rows.tolist())
            # the block is those rows, propensities cut to N
            block = chunk.take(rows)
            for name, column in vars(chunk).items():
                expected = column[rows, :n] if name == "propensities" else column[rows]
                assert getattr(block, name).tobytes() == expected.tobytes(), name

    def test_rejects_a_mixed_block(self):
        [(q, params, model)] = drawn(61, 1, max_agents=4)
        other = GameParams(params.n_agents, params.capacity, params.payoff_scale, 10,
                           FICT if params.rule is BASIC else BASIC)
        with pytest.raises(ValueError):
            enumerate_block([(q, params, model), (q, other, model)])
        with pytest.raises(ValueError):
            enumerate_block([])
        # each tuple fits its own game, but the two differ in N
        three, two = GameParams(3, 1, 0.1, 10, BASIC), GameParams(2, 1, 0.1, 10, BASIC)
        with pytest.raises(ValueError, match="one n_agents and one rule"):
            enumerate_block([(np.zeros(3), three, model), (np.zeros(2), two, model)])
        # a chunk is not a block: its rows mix N, its propensities are padded
        with pytest.raises(ValueError, match="one n_agents and one rule"):
            enumerate_block(random_instance(np.random.default_rng(61), 4, 50))


# signed zeros, exp's overflow edge near 709.78, where expit's tail ends
# and beyond
EDGES = (0.0, -0.0, 709.782712893384, -709.782712893384, 709.8, -709.8, 745.0, -745.0, 800.0, -800.0)


@st.composite
def stacked_models(draw):
    """Instances of one N under logistic models, the standard one among them,
    and a (B, k, N) stack of propensities for them to evaluate."""
    n, k = draw(st.integers(1, MAX_AGENTS)), draw(st.integers(1, 3))
    values = st.one_of(st.sampled_from(EDGES), st.floats(-800.0, 800.0))
    instances, points = [], []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            model = Logistic()
        else:
            model = Logistic(draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0)))
        instances.append((np.zeros(n), GameParams(n, 1, 0.1, 10, BASIC), model))
        points.append(draw(st.lists(values, min_size=k * n, max_size=k * n)))
    return instances, np.array(points).reshape(len(instances), k, n)


class TestStackedModels:
    @settings(max_examples=100, deadline=None)
    @given(stacked_models())
    def test_rows_have_the_bytes_of_each_models_prob(self, case):
        instances, points = case
        probs = Instances.stack(instances).prob(points)
        for b, (_, _, model) in enumerate(instances):
            assert probs[b].tobytes() == model.prob(points[b]).tobytes()


class TestPoissonBinomial:
    def test_homogeneous_case(self):
        pmf = poisson_binomial_rows(np.array([np.full(6, 0.3), np.full(6, 0.8)]))
        assert np.max(np.abs(pmf[0] - binom.pmf(np.arange(7), 6, 0.3))) <= 1e-14
        assert np.max(np.abs(pmf[1] - binom.pmf(np.arange(7), 6, 0.8))) <= 1e-14

    def test_degenerate_probabilities(self):
        pmf = poisson_binomial_rows(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(pmf, [[0, 0, 1, 0], [1, 0, 0, 0]], atol=1e-15)

    @pytest.mark.parametrize("probs", [[0.3, 0.5], np.zeros((2, 0)), np.zeros((0, 0)), np.zeros((1, 2, 2))],
                             ids=["1-d", "empty-rows", "no-rows", "3-d"])
    def test_rejects_anything_but_nonempty_rows(self, probs):
        with pytest.raises(ValueError, match="2-d array of nonempty rows"):
            poisson_binomial_rows(probs)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            poisson_binomial_rows(np.array([[0.3, 0.2, 0.5], [0.3, np.nan, 0.5]]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, MAX_AGENTS).flatmap(
            lambda n: st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=1, max_size=4)
        )
    )
    def test_zero_padding_is_exact(self, rows):
        # a p = 0 column multiplies by 1.0 and adds +0.0, so oracle-check may
        # pad a chunk of mixed N to MAX_AGENTS columns and run one recurrence
        p = np.array(rows)
        padding = ((0, 0), (0, MAX_AGENTS - p.shape[1]))
        padded = poisson_binomial_rows(np.pad(p, padding))
        assert padded.tobytes() == np.pad(poisson_binomial_rows(p), padding).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, MAX_AGENTS).flatmap(
            lambda n: st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=1, max_size=4)
        )
    )
    def test_bit_identical_to_vector_recurrence(self, rows):
        p = np.array(rows)
        pmf = poisson_binomial_rows(p)
        for b in range(len(rows)):
            assert pmf[b].tobytes() == vector_pmf(p[b]).tobytes()
