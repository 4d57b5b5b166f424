import argparse
import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from entrydyn import abm, cli, config, core, runio
from entrydyn.core import (
    BLOCK_AGENTS,
    GameParams,
    LearningRule,
    Logistic,
    expected_drift,
    pairwise_fold,
    pairwise_leaves,
    separation_ratio,
    sorting_rate,
)
from entrydyn.grid import GridSpec
from entrydyn.kinetic import SolverOptions

import test_cli
from conftest import CountingLogistic, payoff, update_propensity

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

    def test_affine_logistic_values_at_its_center(self):
        m = Logistic(0.4, -1.5)
        assert m.prob(-1.5) == 0.5
        assert m.dprob(-1.5) == pytest.approx(1 / 1.6, abs=1e-12)

    @pytest.mark.parametrize("model", [Logistic(), Logistic(0.7, 2.5)], ids=["standard", "affine"])
    def test_derivative_matches_finite_difference(self, model):
        q = model.center + model.scale * np.linspace(-6.0, 6.0, 50)
        eps = 1e-6
        fd = (model.prob(q + eps) - model.prob(q - eps)) / (2 * eps)
        assert np.max(np.abs(model.dprob(q) - fd)) <= 1e-7

    @pytest.mark.parametrize("model", [Logistic(), Logistic(0.7, 2.5)], ids=["standard", "affine"])
    @pytest.mark.parametrize("q", [np.nan, np.array([np.nan, 1.0]), np.array([]), np.array([[0.0, 2.0]])])
    def test_prob_keeps_shape_and_nan(self, model, q):
        # the whole line is the domain: NaN passes through, and an empty or
        # a 2-D array keeps its shape
        p = model.prob(q)
        assert np.shape(p) == np.shape(q)
        assert np.array_equal(np.isnan(p), np.isnan(q))

    @pytest.mark.parametrize("model", [Logistic(), Logistic(0.7, 2.5)], ids=["standard", "affine"])
    def test_prob_into_out_allocates_no_population_array(self, model):
        # a float per agent of the four blocks would be 32 times the bound
        q = np.random.default_rng(2).normal(0.5, 2.0, 4 * BLOCK_AGENTS)
        p = np.empty_like(q)
        tracemalloc.start()
        try:
            model.prob(q, out=p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_AGENTS

    @pytest.mark.parametrize("model", [Logistic(1.0, 0.0), Logistic(0.3, 2.0), Logistic(4.0, -300.0)])
    def test_strictly_increasing(self, model):
        # stay out of the saturated tails where float p hits exactly 1
        grid = model.center + model.scale * np.linspace(-8.0, 8.0, 500)
        p = model.prob(grid)
        assert np.all(np.diff(p) > 0)
        assert np.all(p >= 0) and np.all(p <= 1)

    # the steep logistic rounds to exactly 0 and 1 inside q's range
    @pytest.mark.parametrize("model", [Logistic(0.7, -0.4), Logistic(0.005, 4.5), Logistic()])
    def test_prob_into_out_is_bit_identical(self, model):
        q = np.random.default_rng(12).uniform(0.0, 9.0, 257)
        buf = np.full_like(q, np.nan)
        result = model.prob(q, out=buf)
        assert result is buf
        assert buf.tobytes() == model.prob(q).tobytes()

    def test_logistic_prob_is_the_operator_form_bit_for_bit(self):
        model = Logistic(0.7, -0.4)
        q = np.random.default_rng(13).uniform(-30.0, 30.0, 257)
        assert model.prob(q).tobytes() == expit((q + 0.4) / 0.7).tobytes()
        scalar = model.prob(1.9)
        assert type(scalar) is np.float64
        assert scalar.tobytes() == expit((1.9 + 0.4) / 0.7).tobytes()


# the edges of exp's range, the centre and NaN, in units of the logistic's argument
EXTREME_ARGS = [745.0, -745.0, 709.8, -709.8, 0.0, -0.0, math.inf, -math.inf, math.nan]
# the first double whose exp overflows
OVERFLOW_ARG = 709.7827128933841
LOGISTICS = st.builds(
    Logistic,
    scale=st.sampled_from([1.0, 0.7, 3.0, 0.05]),
    center=st.sampled_from([0.0, -0.4, 2.5, 300.0]),
)


class TestEnters:
    @settings(max_examples=300, deadline=None)
    @given(
        model=LOGISTICS,
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
        q = model.center + model.scale * np.array([a for a, _, _ in agents])
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
    def test_fast_denominator_is_far_inside_the_tie_band(self, model):
        # against 1 + exp(z) in extended precision, which stays finite past
        # the double range: the fast denominator overflows where its double
        # rounding does, and is within a relative _TIE / 1000 elsewhere
        q = model.center + model.scale * np.concatenate(
            [np.linspace(-800.0, 800.0, 1_600_001), EXTREME_ARGS[:-1]]
        )
        with np.errstate(over="ignore"):
            fast = model._fast_denominator(q, out=np.empty_like(q))
            exact = 1.0 + np.exp(((model.center - q) / model.scale).astype(np.longdouble))
            finite = np.isfinite(exact.astype(float))
        assert np.array_equal(np.isinf(fast), ~finite)
        relative = np.abs(fast[finite] - exact[finite]) / exact[finite]
        assert np.max(relative) <= core._TIE / 1000

    @pytest.mark.parametrize("model", [Logistic(), Logistic(0.7, -0.4)], ids=["standard", "affine"])
    def test_exact_where_the_bare_product_errs(self, model):
        # u = min(p, 1 / D~) puts the draw between p and the fast 1 / D~
        # wherever they differ, so a decision taken from u * D~ < 1 alone
        # would be wrong there
        q = model.center + model.scale * np.linspace(-40.0, 40.0, 200_001)
        p = model.prob(q)
        fast = model._fast_denominator(q, out=np.empty_like(q))
        u = np.minimum(np.minimum(p, 1.0 / fast), np.nextafter(1.0, 0.0))
        bare_wrong = (u * fast < 1.0) != (u < p)
        assert np.count_nonzero(bare_wrong) > 100
        out = model.enters(q, u, np.empty(q.shape, dtype=bool), np.empty_like(q))
        assert np.array_equal(out, u < p)

    def test_zero_draw_where_exp_overflows(self):
        # u = 0 enters iff p > 0: one ulp below the first double whose exp
        # overflows p is subnormal and 0 * D~ = 0 < 1; from that double on
        # expit's p is 1 / (1 + inf) = 0, and 0 * inf is NaN, which compares
        # False.  q = -z, since the standard logistic's z is -q
        below, above = np.nextafter(OVERFLOW_ARG, 0.0), np.nextafter(OVERFLOW_ARG, np.inf)
        z = np.array([below, OVERFLOW_ARG, above, np.inf, -np.inf])
        q, u = -z, np.zeros_like(z)
        out = Logistic().enters(q, u, np.empty(q.shape, dtype=bool), np.empty_like(q))
        assert out.tolist() == (u < Logistic().prob(q)).tolist() == [True, False, False, False, True]

    def test_nan_propensity_cannot_hide_a_near_tie(self):
        # a NaN first would make np.min of the band's distances NaN, and the
        # near-tie beside it would then skip the exact path
        model = CountingLogistic()
        q = np.linspace(-40.0, 40.0, 200_001)
        fast = model._fast_denominator(q, out=np.empty_like(q))
        u = np.minimum(model.prob(q), 1.0 / fast)
        k = int(np.flatnonzero((u * fast < 1.0) != (u < model.prob(q)))[0])
        q, u = np.array([np.nan, q[k]]), np.array([0.5, u[k]])
        model.calls.clear()
        out = model.enters(q, u, np.empty(2, dtype=bool), np.empty(2))
        assert model.calls == [(1, False)]
        assert out.tolist() == (u < model.prob(q)).tolist()

    def test_numpy_and_libm_exp_first_overflow_at_the_same_double(self):
        # enters relies on it: numpy's exp sets D~ = inf exactly where expit,
        # through the C library's exp, returns p = 0
        bits = np.float64(math.log(sys.float_info.max)).view(np.int64)
        z = (bits + np.arange(-(2**12), 2**12 + 1)).view(np.float64)
        with np.errstate(over="ignore"):
            numpy_inf = np.isinf(np.exp(z))
        libm_inf = []
        for x in z.tolist():
            try:
                libm_inf.append(math.isinf(math.exp(x)))
            except OverflowError:
                libm_inf.append(True)
        assert numpy_inf.tolist() == libm_inf
        assert np.array_equal(numpy_inf, expit(-z) == 0.0)
        assert z[np.argmax(numpy_inf)] == OVERFLOW_ARG


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


class TestPredictedTimes:
    def test_acceptance_parameters(self):
        p = make_params()
        assert 1.0 / p.r == pytest.approx(0.001, rel=1e-12)
        assert 1.0 / sorting_rate(p) == pytest.approx(0.2, rel=1e-12)

    def test_second_parameter_set(self):
        p = make_params(n=100, c=50, h=0.1, m=10)
        assert p.r == 100.0
        assert 1.0 / p.r == pytest.approx(0.01, rel=1e-12)
        assert 1.0 / sorting_rate(p) == pytest.approx(0.2, rel=1e-12)

    def test_ratio_is_two_over_h(self):
        for n, c, h, m in [(1000, 500, 0.01, 100), (64, 16, 0.5, 7), (10, 3, 1.5, 2)]:
            p = make_params(n=n, c=c, h=h, m=m)
            tau_learning, tau_sorting = 1.0 / p.r, 1.0 / sorting_rate(p)
            assert tau_sorting / tau_learning == pytest.approx(2.0 / h, rel=1e-12)
            assert separation_ratio(p) == 2.0 / h
            if h < 2.0:
                assert tau_sorting > tau_learning


class TestExpectedDrift:
    @settings(max_examples=200, deadline=None)
    @given(
        probs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=40),
        h=st.floats(1e-4, 1.0),
        rounds=st.integers(1, 5000),
        capacity_share=st.floats(0.0, 1.0),
        rule=st.sampled_from([BASIC, FICT]),
    )
    def test_scaled_drift_is_the_mean_field_velocity_plus_the_own_decision_term(
        self, probs, h, rounds, capacity_share, rule
    ):
        # put S = N a and c = N kappa, and multiply by M: the closed form is
        # the density engine's velocity plus -M h p (1 - p) (basic) or
        # -M h (1 - p) (fictitious)
        p = np.array(probs)
        n = p.size
        c = max(1, math.ceil(capacity_share * n))
        params = GameParams(n, c, h, rounds, rule)
        a = float(np.mean(p))
        if rule is BASIC:
            velocity = params.r * (params.kappa - a) * p - rounds * h * p * (1.0 - p)
        else:
            velocity = params.r * (params.kappa - a) - rounds * h * (1.0 - p)
        scaled = rounds * expected_drift(p, h, c, rule)
        np.testing.assert_allclose(scaled, velocity, rtol=1e-12, atol=1e-12 * (params.r + rounds * h))

    @pytest.mark.parametrize("rule", [BASIC, FICT])
    def test_a_block_is_its_rows(self, rule):
        # one row per instance, with h and c as columns
        rng = np.random.default_rng(9)
        p = rng.uniform(0.05, 0.95, (3, 5))
        h, c = np.array([[0.1], [0.02], [0.3]]), np.array([[2], [5], [1]])
        block = expected_drift(p, h, c, rule)
        for b in range(3):
            assert block[b].tobytes() == expected_drift(p[b], h[b, 0], c[b, 0], rule).tobytes()


CAPS = st.sampled_from([1, 7, 128, 129, 1000, BLOCK_AGENTS])


class TestPairwiseFold:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3 * BLOCK_AGENTS + 5), cap=CAPS)
    def test_leaves_tile_the_items_in_order(self, n, cap):
        leaves = pairwise_leaves(n, cap)
        assert leaves[0][0] == 0 and leaves[-1][1] == n
        assert all(stop == start for (_, stop), (start, _) in zip(leaves, leaves[1:]))
        assert all(0 < j - i <= max(cap, 128) for i, j in leaves)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3 * BLOCK_AGENTS + 5),
        cap=CAPS,
        spread=st.integers(0, 300),
        zero_share=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=777, cap=200, spread=300, zero_share=0.0, seed=6)  # leaves 192, 192, 192, 96, 105
    @example(n=128, cap=7, spread=20, zero_share=0.1, seed=0)
    @example(n=129, cap=7, spread=20, zero_share=0.1, seed=1)
    @example(n=BLOCK_AGENTS - 1, cap=BLOCK_AGENTS, spread=300, zero_share=0.1, seed=2)
    @example(n=BLOCK_AGENTS + 1, cap=BLOCK_AGENTS, spread=300, zero_share=0.1, seed=3)
    @example(n=3 * BLOCK_AGENTS + 5, cap=BLOCK_AGENTS, spread=300, zero_share=0.0, seed=4)
    @example(n=3 * BLOCK_AGENTS + 5, cap=1000, spread=0, zero_share=1.0, seed=5)
    def test_folded_leaf_sums_are_the_whole_sum(self, n, cap, spread, zero_share, seed):
        # numpy's own pairwise summation is the reference: a numpy that
        # splits or orders its sums otherwise fails here, bit for bit.
        # Magnitudes range over 10^(+-spread), and a share of the items is
        # +0.0 or -0.0
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n)
        zeros = rng.random(n) < zero_share
        x[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
        sums = [np.add.reduce(x[i:j]) for i, j in pairwise_leaves(n, cap)]
        assert np.float64(pairwise_fold(sums, n, cap)).tobytes() == np.add.reduce(x).tobytes()

    @pytest.mark.parametrize("n", [1, 129, BLOCK_AGENTS + 1, 3 * BLOCK_AGENTS + 5])
    def test_negative_zeros_fold_as_numpy_sums_them(self, n):
        x = np.full(n, -0.0)
        sums = [np.add.reduce(x[i:j]) for i, j in pairwise_leaves(n)]
        assert np.float64(pairwise_fold(sums, n)).tobytes() == np.add.reduce(x).tobytes()

    def test_a_million_is_sixteen_leaves(self):
        sizes = [j - i for i, j in pairwise_leaves(10**6)]
        assert len(sizes) == 16 and set(sizes) == {62_496, 62_504}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the modules are the API; an example that imports a name from a module
    # that does not define it fails here rather than for the reader
    section = README.read_text().split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, f"{README.name} (Library use)", "exec"), {})


def test_readme_module_map_names_every_module():
    section = README.read_text().split("\nModule map: ", 1)[1].split("\n\n", 1)[0]
    # a module's description, in parentheses, may name things in backticks too
    mapped = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", section))
    modules = {path.stem for path in Path(core.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(mapped) == sorted(modules)


def test_readme_names_every_config_key():
    # a key the README does not name is an option no reader can find
    sections = [config.RunConfig, GameParams, Logistic, GridSpec, SolverOptions, *get_args(abm.InitialCondition)]
    keys = {"kind", "target_entry_fraction"} | {f.name for cls in sections for f in dataclasses.fields(cls)}
    readme = README.read_text()
    assert sorted(key for key in keys if not re.search(rf"\b{key}\b", readme)) == []


def test_readme_and_parser_name_the_same_flags():
    # a flag the README does not name is an option no reader can find, and
    # a flag only the README names is one no run accepts
    (subcommands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {flag for sub in subcommands.choices.values() for a in sub._actions for flag in a.option_strings}
    head, rest = README.read_text().split("\n## Install\n", 1)
    named = set(re.findall(r"--[a-z][a-z-]*", head + rest.split("\n## ", 1)[1]))
    assert sorted(named) == sorted(parsed - {"-h", "--help"})


def test_readme_names_every_artifact_key(tmp_path):
    # a key of run.json or fits.json the README does not name is an output no reader can read
    abm_cfg = test_cli.write_cfg(tmp_path / "abm.json", out_dir=str(tmp_path / "abm"))
    pde_cfg = test_cli.pde_cfg(tmp_path / "pde.json", tmp_path / "pde")
    assert cli.main(["abm", "--config", str(abm_cfg)]) == 0
    assert cli.main(["pde", "--config", str(pde_cfg)]) == 0
    test_cli.TestAnalyze.synthetic_run(tmp_path / "fits")
    assert cli.main(["analyze", str(tmp_path / "fits")]) == 0
    keys = set()
    for run in ("abm", "pde"):
        record = runio.read_json(tmp_path / run / "run.json")
        keys |= {*record, *record["derived"], *record["predicted_rates"]}
    fits = runio.read_json(tmp_path / "fits" / "fits.json")
    keys |= {*fits, *fits["aggregate_learning"], *fits["sorting"], *fits["time_scale_separation"]}
    section = README.read_text().split("\n## Artifacts\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(key for key in keys if not re.search(rf"\b{key}\b", section)) == []


def test_no_module_imports_a_private_name():
    # README: a name with a leading underscore is private to its module
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []


# entrydyn's modules by rank: each imports only modules of lower rank, so the
# engines, the oracle and analysis all read core's closed forms, none another's
MODULE_RANKS = {
    "core": 0,
    "grid": 1,
    "observables": 2,
    **dict.fromkeys(("abm", "kinetic", "oracle", "analysis", "runio"), 3),
    "config": 4,
    "cli": 5,
}


def test_modules_import_only_lower_ranks():
    paths = {path.stem: path for path in Path(core.__file__).parent.glob("*.py")}
    assert set(paths) - {"__init__"} == set(MODULE_RANKS)
    found = []
    for name, rank in MODULE_RANKS.items():
        for node in ast.walk(ast.parse(paths[name].read_text(), filename=str(paths[name]))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                # `from . import abm` names modules; `from .core import x` names one
                targets = [alias.name for alias in node.names] if node.module is None else [node.module]
                found += [f"{name} -> {t}" for t in targets if MODULE_RANKS[t.split(".")[0]] >= rank]
    assert found == []


def test_each_module_imports_on_its_own():
    # one interpreter, numpy and scipy loaded once; before each submodule
    # every entrydyn module is dropped, so none leans on a sibling that the
    # package or an earlier import happened to load
    script = """
import importlib, pkgutil, sys
import numpy, scipy.linalg.lapack, scipy.optimize, scipy.special
import entrydyn
names = [m.name for m in pkgutil.iter_modules(entrydyn.__path__)]
for name in names:
    for key in [k for k in sys.modules if k.split(".")[0] == "entrydyn"]:
        del sys.modules[key]
    importlib.import_module("entrydyn." + name)
# replicas run in one process: no module pulls in a process pool
assert "concurrent.futures.process" not in sys.modules
print(" ".join(names))
"""
    src = str(Path(core.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    imported = set(done.stdout.split())
    assert imported >= {"abm", "analysis", "cli", "config", "core", "grid"}
    assert imported >= {"kinetic", "observables", "oracle", "runio"}
