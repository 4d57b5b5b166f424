import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrydyn
from entrydyn import core
from entrydyn import (
    DomainError,
    ErevRothRatio,
    GameParams,
    LearningRule,
    Logistic,
    predicted_time_scales,
)

from conftest import payoff, update_propensity

BASIC = LearningRule.BASIC_REINFORCEMENT
FICT = LearningRule.FICTITIOUS_STOCHASTIC


def make_params(n=1000, c=500, h=0.01, m=100, rule=BASIC):
    return GameParams(n, c, h, m, rule)


class TestGameParams:
    def test_derived_quantities(self):
        p = make_params()
        assert p.tau == 0.01
        assert p.kappa == 0.5
        assert p.r == 1000.0

    def test_capacity_bounds(self):
        with pytest.raises(ValueError, match="capacity"):
            make_params(c=0)
        with pytest.raises(ValueError, match="capacity"):
            make_params(c=1001)
        # c = N is the saturated edge; the single-agent enumeration cases need it
        assert make_params(n=1, c=1).kappa == 1.0

    def test_capacity_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            GameParams(10, 4.5, 0.1, 10, BASIC)
        assert GameParams(10, 5.0, 0.1, 10, BASIC).kappa == 0.5

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            make_params(h=0.0)
        with pytest.raises(ValueError):
            make_params(h=-0.01)
        with pytest.raises(ValueError):
            make_params(m=0)

    def test_rule_must_be_enum(self):
        with pytest.raises(TypeError):
            GameParams(10, 5, 0.1, 10, "basic_reinforcement")


class TestProbabilityModels:
    def test_logistic_center_value(self):
        assert Logistic(1.0, 0.0).prob(0.0) == 0.5

    def test_logistic_saturation(self):
        m = Logistic(1.0, 0.0)
        assert abs(m.prob(20.0) - 1.0) <= 1e-8
        assert m.prob(-20.0) <= 1e-8

    def test_logistic_derivative_identity(self):
        grid = np.linspace(-30, 30, 601)
        for s, q0 in [(1.0, 0.0), (0.5, 1.3), (2.0, -4.0)]:
            m = Logistic(s, q0)
            p = m.prob(grid)
            assert np.max(np.abs(m.dprob(grid) - p * (1 - p) / s)) <= 1e-12

    def test_ratio_model_values(self):
        m = ErevRothRatio(1.0)
        assert m.prob(1.0) == 0.5
        assert m.dprob(1.0) == pytest.approx(0.25, abs=1e-12)

    def test_ratio_model_rejects_negative(self):
        m = ErevRothRatio(1.0)
        with pytest.raises(DomainError):
            m.prob(-0.1)
        with pytest.raises(DomainError):
            m.dprob(np.array([0.5, -1e-9]))
        with pytest.raises(DomainError):
            m.prob(np.array([0.5, -1e-9]), out=np.empty(2))

    def test_ratio_derivative_matches_finite_difference(self):
        m = ErevRothRatio(0.7)
        q = np.linspace(0.1, 5.0, 50)
        eps = 1e-6
        fd = (m.prob(q + eps) - m.prob(q - eps)) / (2 * eps)
        assert np.max(np.abs(m.dprob(q) - fd)) <= 1e-7

    @pytest.mark.parametrize(
        "model", [Logistic(1.0, 0.0), Logistic(0.3, 2.0), ErevRothRatio(1.5)]
    )
    def test_strictly_increasing(self, model):
        if isinstance(model, ErevRothRatio):
            grid = np.linspace(0.0, 20.0, 500)
        else:
            # stay out of the saturated tails where float p hits exactly 1
            grid = model.center + model.scale * np.linspace(-8.0, 8.0, 500)
        p = model.prob(grid)
        assert np.all(np.diff(p) > 0)
        assert np.all(p >= 0) and np.all(p <= 1)

    @pytest.mark.parametrize("model", [Logistic(0.7, -0.4), ErevRothRatio(1.5), Logistic()])
    def test_prob_into_out_is_bit_identical(self, model):
        q = np.random.default_rng(12).uniform(0.0, 9.0, 257)
        buf = np.full_like(q, np.nan)
        result = model.prob(q, out=buf)
        assert result is buf
        assert buf.tobytes() == model.prob(q).tobytes()


# the edges of exp's range, the centre and NaN, in units of the logistic's argument
EXTREME_ARGS = [745.0, -745.0, 709.8, -709.8, 0.0, -0.0, math.inf, -math.inf, math.nan]
LOGISTICS = st.builds(
    Logistic,
    scale=st.sampled_from([1.0, 0.7, 3.0, 0.05]),
    center=st.sampled_from([0.0, -0.4, 2.5, 300.0]),
)


class TestEnters:
    @settings(max_examples=300, deadline=None)
    @given(
        model=st.one_of(LOGISTICS, st.builds(ErevRothRatio, st.floats(0.1, 10.0))),
        agents=st.lists(
            st.tuples(
                st.one_of(st.floats(-800.0, 800.0), st.sampled_from(EXTREME_ARGS)),
                st.floats(0.0, 1.0, exclude_max=True),
                st.one_of(st.none(), st.integers(-6, 6)),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_equals_u_less_than_prob(self, model, agents):
        # u is either a uniform draw or p moved by a few ulps, so the draws
        # land inside the band where the fast and exact p can disagree
        args = np.array([a for a, _, _ in agents])
        if isinstance(model, Logistic):
            q = model.center + model.scale * args
        else:
            # inf / (inf + baseline) is NaN with a warning on both paths
            q = np.abs(np.where(np.isinf(args), 745.0, args))
        p = model.prob(q)
        u = np.array([
            draw if ulps is None or np.isnan(pi) else pi + ulps * np.spacing(pi)
            for pi, (_, draw, ulps) in zip(p, agents)
        ])
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        out = np.empty(q.shape, dtype=bool)
        assert model.enters(q, u, out, np.empty_like(q)) is out
        assert out.tolist() == (u < p).tolist()

    @pytest.mark.parametrize("model", [Logistic(), Logistic(0.7, -0.4)], ids=["standard", "affine"])
    def test_fast_logistic_is_far_inside_the_tie_band(self, model):
        q = model.center + model.scale * np.concatenate(
            [np.linspace(-800.0, 800.0, 1_600_001), EXTREME_ARGS[:-1]]
        )
        fast = model._fast_prob(q, out=np.empty_like(q))
        assert np.max(np.abs(fast - model.prob(q))) <= core._TIE / 1000

    @pytest.mark.parametrize("model", [Logistic(), Logistic(0.7, -0.4)], ids=["standard", "affine"])
    def test_exact_where_the_fast_logistic_errs(self, model):
        # u = min(p, p~) puts the draw between the two values wherever they
        # differ, so a decision taken from p~ alone would be wrong there
        q = model.center + model.scale * np.linspace(-40.0, 40.0, 200_001)
        p, fast = model.prob(q), model._fast_prob(q, out=np.empty_like(q))
        u = np.minimum(np.minimum(p, fast), np.nextafter(1.0, 0.0))
        fast_wrong = (u < fast) != (u < p)
        assert np.count_nonzero(fast_wrong) > 100
        out = model.enters(q, u, np.empty(q.shape, dtype=bool), np.empty_like(q))
        assert np.array_equal(out, u < p)


class TestPayoff:
    def test_outsider_gets_nothing(self):
        p = make_params(n=20, c=10)
        for m in range(21):
            assert payoff(False, m, p) == 0.0

    def test_entrant_at_capacity(self):
        p = make_params(n=20, c=10)
        assert payoff(True, 10, p) == 0.0

    def test_overcrowded_entrant(self):
        p = make_params(n=20, c=10, h=0.01)
        assert payoff(True, 12, p) == pytest.approx(-0.02, abs=1e-15)

    def test_entrant_count_range(self):
        p = make_params(n=20, c=10)
        with pytest.raises(ValueError):
            payoff(True, -1, p)
        with pytest.raises(ValueError):
            payoff(False, 21, p)
        # an entrant is part of the count, so m = 0 is inconsistent
        with pytest.raises(ValueError):
            payoff(True, 0, p)


class TestUpdatePropensity:
    def test_basic_entrant(self):
        p = make_params(n=20, c=10, h=0.01)
        assert update_propensity(0.5, True, 12, p) == pytest.approx(0.48, abs=1e-15)

    def test_basic_outsider_frozen(self):
        p = make_params(n=20, c=10, h=0.01)
        for m in range(21):
            assert update_propensity(0.5, False, m, p) == 0.5

    def test_fictitious_outsider_at_near_capacity(self):
        p = make_params(n=20, c=10, h=0.01, rule=FICT)
        assert update_propensity(0.5, False, 9, p) == pytest.approx(0.5, abs=1e-15)

    def test_mesh_preservation(self):
        # increments are h * integer, so lattice points map to lattice points
        rng = np.random.default_rng(5)
        for rule in (BASIC, FICT):
            p = make_params(n=20, c=10, h=0.01, rule=rule)
            q_off = 0.137
            for _ in range(100):
                k = int(rng.integers(-50, 50))
                q = q_off + k * p.payoff_scale
                entered = bool(rng.integers(2))
                m = int(rng.integers(1 if entered else 0, 21))
                q_next = update_propensity(q, entered, m, p)
                steps = (q_next - q_off) / p.payoff_scale
                assert abs(steps - round(steps)) <= 1e-9

    def test_basic_update_equals_payoff(self):
        p = make_params(n=20, c=10, h=0.01)
        for entered in (False, True):
            for m in range(1 if entered else 0, 21):
                gain = update_propensity(1.2, entered, m, p) - 1.2
                assert gain == pytest.approx(payoff(entered, m, p), abs=1e-15)


class TestPredictedTimeScales:
    def test_acceptance_parameters(self):
        ts = predicted_time_scales(make_params())
        assert ts.aggregate_learning == pytest.approx(0.001, rel=1e-12)
        assert ts.sorting == pytest.approx(0.2, rel=1e-12)

    def test_second_parameter_set(self):
        p = make_params(n=100, c=50, h=0.1, m=10)
        assert p.r == 100.0
        ts = predicted_time_scales(p)
        assert ts.aggregate_learning == pytest.approx(0.01, rel=1e-12)
        assert ts.sorting == pytest.approx(0.2, rel=1e-12)

    def test_ratio_is_two_over_h(self):
        for n, c, h, m in [(1000, 500, 0.01, 100), (64, 16, 0.5, 7), (10, 3, 1.5, 2)]:
            p = make_params(n=n, c=c, h=h, m=m)
            ts = predicted_time_scales(p)
            assert ts.sorting / ts.aggregate_learning == pytest.approx(2.0 / h, rel=1e-12)
            if h < 2.0:
                assert ts.sorting > ts.aggregate_learning


SUBMODULES = [m.name for m in pkgutil.iter_modules(entrydyn.__path__)]


@pytest.mark.parametrize("name", ["", *SUBMODULES])
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted fails only on
    # `from module import *`, which nothing else in the suite runs
    module = importlib.import_module(f"entrydyn.{name}" if name else "entrydyn")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
