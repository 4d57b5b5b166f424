"""End-to-end runs of the command line, in process via cli.main()."""

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrydyn import cli, oracle, runio
from entrydyn.abm import Gaussian, simulate
from entrydyn.analysis import MIN_SEPARATION, RATE_FACTOR, SORTING_EPSILON
from entrydyn.cli import main
from entrydyn.config import ConfigError, load_config, parse_config
from entrydyn.observables import ObservableSeries
from entrydyn.runio import read_json, read_series, write_json, write_series

from conftest import instance_tuples

GAME_SMALL = {
    "n_agents": 40,
    "capacity": 20,
    "payoff_scale": 0.01,
    "rounds_per_unit": 50,
    "rule": "basic_reinforcement",
}
GAME_PDE = {
    "n_agents": 1000,
    "capacity": 500,
    "payoff_scale": 0.01,
    "rounds_per_unit": 100,
    "rule": "basic_reinforcement",
}


def reference_oracle_check(instances, max_agents, seed, tolerance=1e-12):
    """Reference: oracle-check's stdout from chunks drawn in turn, enumerated
    one instance at a time in drawn order, and its counts from the chunks:
    a block per BLOCK_ELEMENTS >> N instances of one N and one rule, or part
    of one, and 2^N patterns per instance."""
    rng = np.random.default_rng(seed)
    worst_law = 0.0
    worst_drift = 0.0
    n_blocks = n_patterns = 0
    for start in range(0, instances, cli.ORACLE_CHUNK):
        chunk = oracle.random_instance(rng, max_agents, min(cli.ORACLE_CHUNK, instances - start))
        for propensities, params, model in instance_tuples(chunk):
            law = oracle.enumerate_block([(propensities, params, model)])
            pmf = oracle.poisson_binomial_rows(law.probs)
            worst_law = np.maximum(worst_law, np.max(np.abs(law.m_probs - pmf)))
            worst_drift = np.maximum(worst_drift, law.max_abs_gap)
            n_patterns += 2**params.n_agents
        for n, fictitious in set(zip(chunk.n_agents.tolist(), chunk.fictitious.tolist())):
            group = np.count_nonzero((chunk.n_agents == n) & (chunk.fictitious == fictitious))
            n_blocks += math.ceil(group / max(1, oracle.BLOCK_ELEMENTS >> n))
    passed = worst_law <= tolerance and worst_drift <= tolerance
    return (
        f"oracle check: {instances} instances, up to {max_agents} agents, seed {seed}\n"
        f"  entrant-count law vs independent recurrence: worst gap {worst_law:.3e}\n"
        f"  one-round mean drift vs closed form:         worst gap {worst_drift:.3e}\n"
        f"  enumerated {instances} instances in {n_blocks} blocks, {n_patterns} patterns\n"
        f"  tolerance {tolerance:g}: {'PASS' if passed else 'FAIL'}\n"
    )


def write_cfg(path, **overrides):
    cfg = {
        "engine": "abm",
        "game": dict(GAME_SMALL),
        "model": {"kind": "logistic"},
        "init": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
        "t_end": 0.1,
        "seed": 5,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def readme_config():
    """The config document in README's command-line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))


def header(run_dir):
    """The column names of a run's series.csv: its first line."""
    return (run_dir / "series.csv").read_text().splitlines()[0]


def pde_cfg(path, out_dir, **overrides):
    cfg = {
        "engine": "pde",
        "game": dict(GAME_PDE),
        "model": {"kind": "logistic"},
        "init": {"kind": "two_spike", "q_low": -15.0, "q_high": 15.0, "mass_high": 0.5},
        "grid": {"q_min": -16.0, "q_max": 16.0, "n_cells": 800},
        "t_end": 0.02,
        "solver": {"output_interval": 0.005},
        "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommands:
    def test_abm_minimal_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.json.in", out_dir=str(tmp_path / "out"))
        assert main(["abm", "--config", str(cfg)]) == 0
        assert header(tmp_path / "out") == "t,a,b,m_frac"
        series = read_series(tmp_path / "out" / "series.csv")
        assert np.all(np.diff(series.t) > 0)
        payload = read_json(tmp_path / "out" / "run.json")
        assert payload["command"] == "abm"
        assert payload["n_records"] == len(series)
        assert payload["derived"]["kappa"] == 0.5
        assert payload["config"]["seed"] == 5

    def test_abm_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "ignored"))
        out = tmp_path / "elsewhere"
        code = main(
            ["abm", "--config", str(cfg), "--seed", "123", "--t-end", "0.04",
             "--replicas", "2", "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out / "run.json")
        assert payload["config"]["seed"] == 123
        assert payload["config"]["t_end"] == 0.04
        assert payload["config"]["replicas"] == 2
        # replicas > 1 carry spread columns
        assert header(out) == "t,a,b,m_frac,stderr_a,stderr_b"
        series = read_series(out / "series.csv")
        assert series.t[-1] == pytest.approx(0.04)

    def test_abm_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "a"), replicas=4)
        assert main(["abm", "--config", str(cfg)]) == 0
        assert main(["abm", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "series.csv").read_bytes() == (
            tmp_path / "b" / "series.csv"
        ).read_bytes()

    def test_both_engine_writes_subdirectories(self, tmp_path):
        cfg = pde_cfg(
            tmp_path / "c.json",
            tmp_path / "out",
            engine="both",
            init={"kind": "gaussian", "target_entry_fraction": 0.2, "sd": 1.5},
            grid={"q_min": -12.0, "q_max": 12.0, "n_cells": 400},
            game=dict(GAME_PDE, n_agents=200, capacity=100),
            t_end=0.01,
            solver={"output_interval": 0.002},
        )
        assert main(["abm", "--config", str(cfg)]) == 0
        assert main(["pde", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "abm" / "series.csv").is_file()
        assert (tmp_path / "out" / "pde" / "series.csv").is_file()

    def test_pde_sorted_equilibrium_run(self, tmp_path):
        cfg = pde_cfg(tmp_path / "c.json", tmp_path / "out")
        assert main(["pde", "--config", str(cfg)]) == 0
        payload = read_json(tmp_path / "out" / "run.json")
        # each predicted time is in predicted_rates alone
        assert set(payload["derived"]) == {"kappa", "r", "tau"}
        assert payload["mass_residual"] <= 1e-8
        # sorted state: no drift, so every step is the full output interval
        assert payload["n_steps"] == 4
        assert payload["dt_min"] == pytest.approx(0.005)
        assert payload["dt_max"] == pytest.approx(0.005)
        assert header(tmp_path / "out") == "t,a,b"
        series = read_series(tmp_path / "out" / "series.csv")
        assert np.max(np.abs(series.a - 0.5)) <= 1e-6
        assert np.max(series.b) <= 1e-6

    @pytest.mark.parametrize(
        "engine, n_agents",
        [("abm", 1000), ("abm", 3 * 2**16), ("pde", 1000)],
        ids=["abm-one-leaf", "abm-four-leaves", "pde"],
    )
    def test_learning_constant_is_the_start_b(self, tmp_path, engine, n_agents):
        # under the fictitious rule c_p = E[p'] = E[p(1 - p)] / scale: with the
        # standard logistic, the b the engine records at t = 0, bit for bit
        game = dict(GAME_PDE, n_agents=n_agents, capacity=n_agents // 2, rule="fictitious_stochastic")
        init = {"kind": "gaussian", "mean": -1.5, "sd": 1.5}
        cfg = pde_cfg(tmp_path / "c.json", tmp_path / "out", engine=engine, game=game, init=init, t_end=0.01)
        assert main([engine, "--config", str(cfg)]) == 0
        c_p = read_json(tmp_path / "out" / "run.json")["learning_constant"]
        assert c_p == read_series(tmp_path / "out" / "series.csv").b[0]

    def test_ensemble_learning_constant_is_replica_0s_start_b(self, tmp_path):
        # with replicas, c_p is replica 0's start: the population of the base seed
        game = dict(GAME_PDE, rule="fictitious_stochastic")
        path = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "out"), game=game, replicas=3, t_end=0.01)
        assert main(["abm", "--config", str(path)]) == 0
        cfg = load_config(path)
        start = simulate(cfg.game, cfg.model, cfg.init, cfg.t_end, cfg.seed).series.b[0]
        assert read_json(tmp_path / "out" / "run.json")["learning_constant"] == start

    def test_pde_rerun_is_byte_identical(self, tmp_path):
        cfg = pde_cfg(tmp_path / "c.json", tmp_path / "a")
        assert main(["pde", "--config", str(cfg)]) == 0
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "series.csv").read_bytes() == (
            tmp_path / "b" / "series.csv"
        ).read_bytes()
        first, second = (read_json(tmp_path / d / "run.json") for d in "ab")
        for key in ("mass_residual", "n_steps", "dt_min", "dt_max"):
            assert first[key] == second[key]

    def test_pde_snapshots_written_and_plottable(self, tmp_path):
        cfg = pde_cfg(
            tmp_path / "c.json", tmp_path / "out", snapshot_times=[0.0, 0.01]
        )
        assert main(["pde", "--config", str(cfg)]) == 0
        payload = read_json(tmp_path / "out" / "run.json")
        assert len(payload["snapshots"]) == 2
        for name in payload["snapshots"].values():
            assert (tmp_path / "out" / name).is_file()
        assert main(["make-plots", str(tmp_path / "out")]) == 0
        script = (tmp_path / "out" / "plots.gp").read_text()
        assert "series.csv" in script
        assert "density_t0" in script
        assert "pngcairo" in script

    def test_requests_due_at_one_record_write_one_density(self, tmp_path, monkeypatch):
        # on records every 0.01, 0.025 and both 0.03 requests fall due at t = 0.03
        cfg = pde_cfg(
            tmp_path / "c.json",
            tmp_path / "out",
            engine="both",
            init={"kind": "gaussian", "target_entry_fraction": 0.2, "sd": 1.5},
            grid={"q_min": -12.0, "q_max": 12.0, "n_cells": 400},
            game=dict(GAME_PDE, n_agents=200, capacity=100),
            t_end=0.05,
            solver={"output_interval": 0.01},
            snapshot_times=[0.0, 0.0, 0.03, 0.03, 0.025],
        )
        written = []
        write_density = runio.write_density

        def counting_write(path, density):
            written.append(path.name)
            return write_density(path, density)

        monkeypatch.setattr(runio, "write_density", counting_write)
        for engine in ("abm", "pde"):
            written.clear()
            assert main([engine, "--config", str(cfg)]) == 0
            assert written == ["density_t0.csv", "density_t0.03.csv"]
            assert read_json(tmp_path / "out" / engine / "run.json")["snapshots"] == {
                "0": "density_t0.csv",
                "0.03": "density_t0.03.csv",
            }

    def test_pde_explicit_init_outside_grid_warns(self, tmp_path):
        init = {"kind": "explicit", "values": [-20.0, 0.0, 0.5]}
        cfg = pde_cfg(tmp_path / "c.json", tmp_path / "out", init=init)
        with pytest.warns(UserWarning, match="1 propensities outside"):
            assert main(["pde", "--config", str(cfg)]) == 0


@st.composite
def valid_configs(draw):
    """Raw configs that parse: every init kind, on every engine."""
    engine = draw(st.sampled_from(["abm", "pde", "both"]))
    n = draw(st.integers(1, 30))
    game = {
        "n_agents": n,
        "capacity": draw(st.integers(1, n)),
        "payoff_scale": draw(st.floats(1e-3, 1.0)),
        "rounds_per_unit": draw(st.integers(1, 200)),
        "rule": draw(st.sampled_from(["basic_reinforcement", "fictitious_stochastic"])),
    }
    scale, center = draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0))
    model = {"kind": "logistic", "scale": scale, "center": center}
    number = st.floats(-5.0, 5.0)
    kind = draw(st.sampled_from(["all_equal", "gaussian", "explicit", "two_spike"]))
    if kind == "all_equal":
        init = {"kind": kind, "value": draw(number)}
    elif kind == "gaussian":
        init = {"kind": kind, "sd": draw(st.floats(0.1, 3.0))}
        if draw(st.booleans()):
            init["target_entry_fraction"] = draw(st.floats(0.05, 0.95))
        else:
            init["mean"] = draw(number)
    elif kind == "explicit":
        init = {"kind": kind, "values": draw(st.lists(number, min_size=n, max_size=n))}
    else:
        low = draw(number)
        init = {
            "kind": kind,
            "q_low": low,
            "q_high": low + draw(st.floats(0.1, 5.0)),
            "mass_high": draw(st.floats(0.0, 1.0)),
        }
    t_end = draw(st.floats(0.01, 10.0))
    raw = {"engine": engine, "game": game, "model": model, "init": init, "t_end": t_end}
    optional = {
        "seed": st.integers(0, 2**64 - 1),
        "replicas": st.integers(1, 8),
        "record_stride": st.integers(1, 10),
        "out_dir": st.text(min_size=1, max_size=8),
        "grid": st.fixed_dictionaries(
            {
                "q_min": st.floats(-20.0, 0.0),
                "q_max": st.floats(1.0, 20.0),
                "n_cells": st.integers(2, 1000),
            }
        ),
        "solver": st.fixed_dictionaries(
            {"cfl_safety": st.floats(0.01, 0.5)}, optional={"output_interval": st.floats(1e-3, 1.0)}
        ),
        "snapshot_times": st.lists(st.floats(0.0, 10.0), max_size=4),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            raw[key] = draw(strategy)
    return raw


class TestConfig:
    @settings(max_examples=200, deadline=None)
    @given(raw=valid_configs())
    def test_resolved_round_trip(self, raw):
        cfg = parse_config(raw)
        assert parse_config(cfg.resolved()) == cfg
        # run.json holds the resolved form as JSON
        assert parse_config(json.loads(json.dumps(cfg.resolved()))) == cfg

    @staticmethod
    def start_cells(init):
        """Occupied cells of the pde start and of the agents' t = 0 snapshot on an 8-cell grid."""
        cfg = parse_config(
            {
                "engine": "both",
                "game": dict(GAME_SMALL),
                "model": {"kind": "logistic"},
                "init": init,
                "grid": {"q_min": -1.0, "q_max": 1.0, "n_cells": 8},
                "t_end": 0.1,
            }
        )
        result = simulate(
            cfg.game, cfg.model, cfg.init, cfg.t_end, cfg.seed,
            snapshot_times=(0.0,), snapshot_grid=cfg.grid,
        )
        (t0, agents), = result.snapshots
        assert t0 == 0.0
        return np.flatnonzero(cfg.init.density(cfg.grid).values).tolist(), np.flatnonzero(agents.values).tolist()

    @pytest.mark.parametrize(
        "doc",
        [
            {
                "engine": "pde",
                "game": dict(GAME_PDE),
                "model": {"kind": "logistic", "scale": 1.0, "center": 0.0},
                "init": {"kind": "gaussian", "mean": -1.5, "sd": 1.5},
                "t_end": 0.6,
                "seed": 7,
                "replicas": 8,
                "record_stride": 1,
                "out_dir": "out",
                "grid": {"q_min": -12.0, "q_max": 12.0, "n_cells": 800},
                "solver": {"output_interval": 0.001, "cfl_safety": 0.4},
                "snapshot_times": [0.0, 0.3],
            },
            {
                "engine": "abm",
                "game": dict(GAME_SMALL),
                "model": {"kind": "logistic", "scale": 2.0, "center": 0.5},
                "init": {"kind": "explicit", "values": [1.0] * GAME_SMALL["n_agents"]},
                "t_end": 0.1,
                "seed": 2**64 - 1,
                "replicas": 2,
                "record_stride": 3,
                "out_dir": "abm",
                "solver": {"cfl_safety": 0.4},
                "snapshot_times": [],
            },
        ],
        ids=["pde", "abm-without-snapshots"],
    )
    def test_resolved_is_the_fully_written_document(self, doc):
        # run.json's config block: kind inside model and init, a set
        # output_interval kept, and no grid where no engine needs one
        assert parse_config(doc).resolved() == doc

    def test_readme_config_block_round_trips(self):
        cfg = parse_config(readme_config())
        assert parse_config(cfg.resolved()) == cfg

    @pytest.mark.parametrize(
        "model", [{"kind": "logistic"}, {"kind": "logistic", "scale": 0.7, "center": -1.3}], ids=["unit", "shifted"]
    )
    def test_target_start_is_the_gaussian_moved_to_it(self, model):
        # the parsed start is the start the method returns: its mean bit for
        # bit, its sd kept, and the resolved init writes that mean
        init = {"kind": "gaussian", "target_entry_fraction": 0.3, "sd": 1.2}
        cfg = parse_config({"engine": "abm", "game": dict(GAME_SMALL), "model": model, "init": init, "t_end": 0.1})
        expected = Gaussian(0.0, 1.2).with_entry_fraction(cfg.model, 0.3)
        assert cfg.init == expected
        assert np.float64(cfg.init.mean).tobytes() == np.float64(expected.mean).tobytes()
        assert cfg.init.sd == 1.2
        resolved = {"kind": "gaussian", "mean": expected.mean, "sd": 1.2}
        assert cfg.resolved()["init"] == resolved

    def test_all_equal_start_on_a_cell_face_is_one_cell_for_both_engines(self):
        # 0.0 is the face between cells 3 and 4 of this grid
        pde, agents = self.start_cells({"kind": "all_equal", "value": 0.0})
        assert pde == agents

    def test_two_spike_start_on_cell_faces_is_the_same_cells_for_both_engines(self):
        # -0.5 and 0.5 are the faces below cells 2 and 6 of this grid
        init = {"kind": "two_spike", "q_low": -0.5, "q_high": 0.5, "mass_high": 0.5}
        pde, agents = self.start_cells(init)
        assert pde == agents == [2, 6]


# a valid document with every top-level key; its top-level keys and each
# section below are spoiled in turn
TOP_LEVEL = {
    "engine": "abm",
    "game": dict(GAME_SMALL),
    "model": {"kind": "logistic"},
    "init": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
    "t_end": 0.1,
    "seed": 5,
    "replicas": 1,
    "record_stride": 1,
    "out_dir": "out",
    "snapshot_times": [],
}
# one valid section of each kind; name None is the top level itself
SECTIONS = [
    (None, TOP_LEVEL),
    ("game", dict(GAME_SMALL)),
    ("model", {"kind": "logistic", "scale": 1.0, "center": 0.0}),
    ("grid", {"q_min": -8.0, "q_max": 8.0, "n_cells": 100}),
    ("init", {"kind": "all_equal", "value": 0.5}),
    ("init", {"kind": "gaussian", "mean": 0.0, "sd": 1.0}),
    ("init", {"kind": "gaussian", "target_entry_fraction": 0.2, "sd": 1.0}),
    ("init", {"kind": "two_spike", "q_low": -1.0, "q_high": 1.0, "mass_high": 0.5}),
    ("init", {"kind": "explicit", "values": [0.1] * GAME_SMALL["n_agents"]}),
    ("solver", {"output_interval": 0.01, "cfl_safety": 0.4}),
]
# a gaussian needs one of mean and target_entry_fraction: test_bad_init_section_is_named
# covers dropping either
OPTIONAL_KEYS = {
    "scale", "center", "mean", "target_entry_fraction",
    "seed", "replicas", "record_stride", "out_dir", "snapshot_times",
    "output_interval", "cfl_safety",
}


def spoiled_sections():
    """Each section with one key given a value of the wrong type, or dropped if required;
    then each of REJECTED_DOCUMENTS."""
    for name, section in SECTIONS:
        for key, value in section.items():
            if key == "kind":
                continue
            # top-level keys are named bare, section keys as section.key
            where = f"{name}.{key}" if name else key
            label = f"{section.get('kind', name or 'top')}.{key}"
            bad = 3 if isinstance(value, str) else "1"
            yield pytest.param(name, {**section, key: bad}, where, id=f"{label}-type")
            if key not in OPTIONAL_KEYS:
                dropped = {k: v for k, v in section.items() if k != key}
                yield pytest.param(name, dropped, where, id=f"{label}-missing")
    for label, doc, where in REJECTED_DOCUMENTS:
        yield pytest.param(None, doc, where, id=label)


# documents rejected for a value rather than a type, then files that hold no JSON
# object: a string is written as the file's text, and such errors name the file
REJECTED_DOCUMENTS = [
    ("game.rule-unknown", {**TOP_LEVEL, "game": dict(GAME_SMALL, rule="best_response")}, "game.rule"),
    ("engine-unknown", {**TOP_LEVEL, "engine": "ode"}, "engine"),
    ("t_end-zero", {**TOP_LEVEL, "t_end": 0.0}, "t_end"),
    ("seed-negative", {**TOP_LEVEL, "seed": -1}, "seed"),
    ("seed-2**64", {**TOP_LEVEL, "seed": 2**64}, "seed"),
    ("replicas-zero", {**TOP_LEVEL, "replicas": 0}, "replicas"),
    ("record_stride-zero", {**TOP_LEVEL, "record_stride": 0}, "record_stride"),
    ("model.scale-zero", {**TOP_LEVEL, "model": {"kind": "logistic", "scale": 0}}, "model"),
    ("model.scale-negative", {**TOP_LEVEL, "model": {"kind": "logistic", "scale": -1.0}}, "model"),
    ("model-erev_roth_ratio", {**TOP_LEVEL, "model": {"kind": "erev_roth_ratio"}}, "model.kind"),
    ("game.n_agents-zero", {**TOP_LEVEL, "game": dict(GAME_SMALL, n_agents=0)}, "game"),
    ("grid.n_cells-one", {**TOP_LEVEL, "grid": {"q_min": -8.0, "q_max": 8.0, "n_cells": 1}}, "grid"),
    ("snapshot_times-negative", {**TOP_LEVEL, "snapshot_times": [0.0, -0.01]}, "snapshot_times"),
    (
        "grid-width-overflows",
        {**TOP_LEVEL, "grid": {"q_min": -1e308, "q_max": 1e308, "n_cells": 10}},
        "grid",
    ),
    (
        "default-grid-empty",
        {**TOP_LEVEL, "engine": "pde", "model": {"kind": "logistic", "center": 1e308}},
        "grid",
    ),
    (
        "default-grid-width-overflows",
        {**TOP_LEVEL, "engine": "pde", "model": {"kind": "logistic", "scale": 1e307}},
        "grid",
    ),
    ("not-json", '{"engine": "abm",}', "c.json"),
    ("not-an-object", [TOP_LEVEL], "c.json"),
]


class TestConfigRejection:
    @pytest.mark.parametrize("name, section, key", spoiled_sections())
    def test_bad_key_is_named_once(self, tmp_path, capsys, monkeypatch, name, section, key):
        # out_dir "out" is relative: a run that got as far as writing would make tmp_path/out
        monkeypatch.chdir(tmp_path)
        doc = section if name is None else {**TOP_LEVEL, name: section}
        Path("c.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["abm", "--config", "c.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and err.count(key) == 1, err
        assert not (tmp_path / "out").exists()

    def test_capacity_above_population(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.json",
            out_dir=str(tmp_path / "out"),
            game=dict(GAME_SMALL, capacity=80),
        )
        assert main(["abm", "--config", str(cfg)]) == 2
        assert "capacity" in capsys.readouterr().err

    def test_fractional_capacity_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.json",
            out_dir=str(tmp_path / "out"),
            game=dict(GAME_SMALL, capacity=20.5),
        )
        assert main(["abm", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "game.capacity" in err and "integer" in err

    def test_unknown_nested_key_is_named(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.json",
            out_dir=str(tmp_path / "out"),
            init={"kind": "gaussian", "mean": 0.0, "sd": 1.0, "typo": 3},
        )
        assert main(["abm", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "typo" in err and "init" in err

    def test_baseline_is_unknown_to_the_logistic(self, tmp_path, capsys):
        # the removed ratio model's parameter
        model = {"kind": "logistic", "baseline": 1.0}
        cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "out"), model=model)
        assert main(["abm", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: unknown key 'baseline' in model\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "init, key",
        [
            ({"kind": "gaussian", "mean": 0.0, "sd": 0.0}, "sd"),
            ({"kind": "gaussian", "mean": 0.0, "sd": -1.0}, "sd"),
            ({"kind": "gaussian", "target_entry_fraction": 0.2, "sd": 0.0}, "sd"),
            ({"kind": "gaussian", "target_entry_fraction": 0.2, "sd": -1.0}, "sd"),
            ({"kind": "gaussian", "mean": 0.0}, "sd"),
            ({"kind": "gaussian", "mean": 0.0, "sd": "1"}, "sd"),
            ({"kind": "gaussian", "mean": 0.0, "target_entry_fraction": 0.2, "sd": 1.0}, "mean"),
            ({"kind": "gaussian", "sd": 1.0}, "mean"),
            ({"kind": "gaussian", "mean": "0", "sd": 1.0}, "mean"),
            ({"kind": "gaussian", "target_entry_fraction": 0.0, "sd": 1.0}, "target_entry_fraction"),
            ({"kind": "gaussian", "target_entry_fraction": 1.0, "sd": 1.0}, "target_entry_fraction"),
            ({"kind": "gaussian", "target_entry_fraction": 1.5, "sd": 1.0}, "target_entry_fraction"),
            ({"kind": "gaussian", "target_entry_fraction": 1e-300, "sd": 1.5}, "target_entry_fraction"),
            ({"kind": "gaussian", "mean": 0.0, "sd": 1.0, "snap_to_lattice": True}, "snap_to_lattice"),
            ({"kind": "two_spike", "q_low": 1.0, "q_high": 1.0, "mass_high": 0.5}, "q_low"),
            ({"kind": "two_spike", "q_low": 2.0, "q_high": 1.0, "mass_high": 0.5}, "q_low"),
            ({"kind": "two_spike", "q_low": -1.0, "q_high": 1.0, "mass_high": 1.5}, "mass_high"),
            ({"kind": "two_spike", "q_low": -1.0, "q_high": 1.0, "mass_high": -0.1}, "mass_high"),
            ({"kind": "two_spike", "q_low": -1.0, "q_high": 1.0}, "mass_high"),
            ({"kind": "explicit", "values": []}, "values"),
            ({"kind": "explicit", "values": [0.1, 0.2]}, "values"),
            ({"kind": "explicit", "values": ["x"] * 40}, "values"),
            ({"kind": "explicit", "values": 0.1}, "values"),
            ({"kind": "all_equal"}, "value"),
            ({"kind": "all_equal", "value": "0"}, "value"),
            ({"kind": "all_equal", "value": True}, "value"),
            ({"kind": "all_equal", "value": 0.0, "sd": 1.0}, "sd"),
            ({"kind": "two_spike", "q_low": -1.0, "q_high": 1.0, "mass_high": 0.5, "mean": 0.0}, "mean"),
            ({"kind": "uniform", "value": 0.0}, "kind"),
            ({"value": 0.0}, "kind"),
            ({"kind": 3}, "kind"),
            ([{"kind": "all_equal", "value": 0.0}], "init"),
            ({"kind": "gaussian", "target_entry_fraction": 0.2, "sd": 5000.0}, "sd"),
        ],
    )
    def test_bad_init_section_is_named(self, tmp_path, capsys, init, key):
        cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "out"), init=init)
        assert main(["abm", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "init" in err and key in err

    @pytest.mark.parametrize("start", [{"mean": 0.0}, {"target_entry_fraction": 0.2}], ids=["mean", "target"])
    @pytest.mark.parametrize("sd", [0.0, -1.0])
    def test_gaussian_sd_has_one_rule(self, tmp_path, capsys, sd, start):
        # a gaussian start with its mean given or solved for rejects a
        # nonpositive sd alike
        init = {"kind": "gaussian", "sd": sd, **start}
        cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "out"), init=init)
        assert main(["abm", "--config", str(cfg)]) == 2
        assert f"init: sd must be positive, got {sd}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            pytest.param({"init": {"kind": "all_equal", "value": math.nan}}, "init.value", id="nan-start"),
            pytest.param({"init": {"kind": "gaussian", "mean": -math.inf, "sd": 1.0}}, "init.mean", id="inf-mean"),
            pytest.param({"init": {"kind": "gaussian", "mean": 0.0, "sd": math.inf}}, "init.sd", id="inf-sd"),
            pytest.param(
                {"init": {"kind": "explicit", "values": [0.0] * 39 + [math.nan]}}, "init.values", id="nan-value"
            ),
            pytest.param(
                {"init": {"kind": "two_spike", "q_low": -1.0, "q_high": math.inf, "mass_high": 0.5}},
                "init.q_high",
                id="inf-spike",
            ),
            pytest.param({"t_end": math.inf}, "t_end", id="inf-t_end"),
            pytest.param({"t_end": 10**400}, "t_end", id="huge-int-t_end"),
            pytest.param({"game": dict(GAME_SMALL, payoff_scale=math.inf)}, "game.payoff_scale", id="inf-h"),
            pytest.param({"model": {"kind": "logistic", "center": math.nan}}, "model.center", id="nan-center"),
            pytest.param({"model": {"kind": "logistic", "scale": math.inf}}, "model.scale", id="inf-scale"),
            pytest.param(
                {"grid": {"q_min": -8.0, "q_max": math.inf, "n_cells": 100}}, "grid.q_max", id="inf-grid"
            ),
            pytest.param({"snapshot_times": [math.nan]}, "snapshot_times", id="nan-snapshot"),
        ],
    )
    def test_non_finite_number_is_named(self, tmp_path, capsys, overrides, key):
        # json.dumps writes NaN and Infinity, which Python's JSON reader reads back
        cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "out"), **overrides)
        assert main(["abm", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            pytest.param({"game": dict(GAME_SMALL, n_agents=10**400)}, "game.n_agents", id="n_agents"),
            pytest.param({"game": dict(GAME_SMALL, capacity=10**400)}, "game.capacity", id="capacity"),
            pytest.param(
                {"game": dict(GAME_SMALL, rounds_per_unit=10**400)}, "game.rounds_per_unit", id="rounds"
            ),
            pytest.param(
                {"grid": {"q_min": -8.0, "q_max": 8.0, "n_cells": 10**400}}, "grid.n_cells", id="n_cells"
            ),
        ],
    )
    def test_integer_beyond_float_precision_is_named(self, tmp_path, capsys, overrides, key):
        cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "out"), **overrides)
        assert main(["abm", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert key in err and "2**53" in err
        assert not (tmp_path / "out").exists()

    def test_integer_bound_is_2_to_the_53(self):
        raw = {
            "engine": "abm",
            "game": dict(GAME_SMALL, n_agents=2**53),
            "model": {"kind": "logistic"},
            "init": {"kind": "all_equal", "value": 0.0},
            "t_end": 0.1,
        }
        assert parse_config(raw).game.n_agents == 2**53
        raw["game"]["n_agents"] = 2**53 + 1
        with pytest.raises(ValueError, match=r"game\.n_agents: must not exceed 2\*\*53"):
            parse_config(raw)

    @pytest.mark.parametrize("key", ["replicas", "record_stride"])
    def test_run_counts_are_bounded_by_2_to_the_53(self, key):
        # parse_config only: a config that parsed here would start a run that long
        raw = {
            "engine": "abm",
            "game": dict(GAME_SMALL),
            "model": {"kind": "logistic"},
            "init": {"kind": "all_equal", "value": 0.0},
            "t_end": 0.1,
            key: 2**53,
        }
        assert getattr(parse_config(raw), key) == 2**53
        for value in (2**53 + 1, 10**400):
            raw[key] = value
            with pytest.raises(ValueError, match=rf"^{key}: must not exceed 2\*\*53"):
                parse_config(raw)

    def test_overrides_and_snapshot_times_are_read_as_config_keys(self, tmp_path):
        # the parser, not load_config, decides which keys exist
        cfg = write_cfg(tmp_path / "c.json")
        with pytest.raises(ConfigError, match=r"^unknown key 'bogus' in the top level$"):
            load_config(cfg, {"bogus": 1})
        assert load_config(cfg, {"seed": None, "t_end": 0.2}).seed == 5
        raw = json.loads(cfg.read_text())
        assert parse_config({**raw, "snapshot_times": []}).snapshot_times == ()
        assert parse_config({**raw, "snapshot_times": (0.0, 0.3)}) == parse_config(
            {**raw, "snapshot_times": [0.0, 0.3]}
        )

    @pytest.mark.parametrize(
        "init",
        [
            {"kind": "two_spike", "q_low": -20.0, "q_high": 1.0, "mass_high": 0.5},
            {"kind": "two_spike", "q_low": 0.01, "q_high": 0.02, "mass_high": 0.5},
            {"kind": "gaussian", "mean": 500.0, "sd": 0.1},
        ],
        ids=["spike-off-grid", "spikes-in-one-cell", "gaussian-off-grid"],
    )
    def test_start_that_does_not_fit_the_grid_is_named(self, tmp_path, capsys, init):
        # each parses; the default grid, [-12, 12] in 800 cells, cannot hold it
        cfg = write_cfg(tmp_path / "c.json", engine="pde", init=init, out_dir=str(tmp_path / "out"))
        assert main(["pde", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: init: ")
        assert not (tmp_path / "out").exists()

    def test_engine_subcommand_mismatch(self, tmp_path, capsys):
        cfg = pde_cfg(tmp_path / "c.json", tmp_path / "out")
        assert main(["abm", "--config", str(cfg)]) == 2
        assert "engine" in capsys.readouterr().err

    def test_snapshots_require_single_replica(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.json",
            out_dir=str(tmp_path / "out"),
            replicas=3,
            grid={"q_min": -8.0, "q_max": 8.0, "n_cells": 100},
            snapshot_times=[0.0],
        )
        assert main(["abm", "--config", str(cfg)]) == 2
        assert "snapshot" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["[]", "0.5", '"abm"', "null"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, text):
        # the file reader checks before it applies the flags; the parser
        # checks again for a document handed to it in process
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["abm", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: top level must be a JSON object\n"
        with pytest.raises(ConfigError, match=re.escape(f"top level: expected an object, got {json.loads(text)!r}")):
            parse_config(json.loads(text))

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["abm", "--config", str(tmp_path / "nope.json")]) == 2

    def test_usage_errors_map_to_config_exit(self):
        assert main([]) == 2
        assert main(["abm", "--config", "x", "--bogus"]) == 2

    def test_help_returns_ok(self, capsys):
        assert main(["--help"]) == 0
        assert "entrydyn" in capsys.readouterr().out

    def test_start_below_zero_runs(self, tmp_path, capsys):
        # about three starting propensities in ten are negative, which the
        # logistic takes like any other
        cfg = write_cfg(
            tmp_path / "c.json",
            out_dir=str(tmp_path / "out"),
            init={"kind": "gaussian", "mean": 1.0, "sd": 2.0},
        )
        assert main(["abm", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "series.csv").exists()

    @pytest.mark.parametrize(
        "error, message",
        [
            (
                MemoryError,
                "Unable to allocate 64.0 PiB for an array with shape (9007199254740992,) and data type float64",
            ),
            (MemoryError, ""),
            (RuntimeError, "the engine gave up"),
        ],
    )
    def test_run_that_cannot_allocate_or_fails_is_runtime_error(
        self, tmp_path, capsys, monkeypatch, error, message
    ):
        def failing(*args, **kwargs):
            raise error(message)

        monkeypatch.setattr(cli, "simulate", failing)
        cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "out"))
        assert main(["abm", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ")
        assert err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err


FIT_KEYS = {
    "rate", "log_amplitude", "r_squared", "window", "n_points",
    "tau", "predicted_rate", "ratio", "pass",
}


class TestAnalyze:
    @staticmethod
    def synthetic_run(run_dir, learning_constant=0.1, rate_b=4.0):
        # exact exponentials with known rates; r = 1000 so the aggregate
        # rate is 1000 * learning_constant and the sorting target is 5
        run_dir.mkdir(parents=True, exist_ok=True)
        t = np.arange(0.0, 1.0 + 5e-4, 0.001)
        rate_a = learning_constant * 1000.0
        series = ObservableSeries(
            t=t,
            a=0.5 - 0.3 * np.exp(-rate_a * t),
            b=0.2 * np.exp(-rate_b * t),
        )
        write_series(run_dir / "series.csv", series)
        write_json(
            run_dir / "run.json",
            {"config": {"game": dict(GAME_PDE)}, "learning_constant": learning_constant},
        )

    def test_clean_rates_recovered_and_pass(self, tmp_path):
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir)
        assert main(["analyze", str(run_dir)]) == 0
        fits = read_json(run_dir / "fits.json")
        assert fits["pass"] is True
        # DecayFit's fields, then tau and the comparison with the prediction
        for name in ("aggregate_learning", "sorting"):
            assert set(fits[name]) == FIT_KEYS
        assert fits["aggregate_learning"]["rate"] == pytest.approx(100.0, rel=1e-6)
        assert fits["aggregate_learning"]["ratio"] == pytest.approx(1.0, rel=1e-6)
        assert fits["sorting"]["rate"] == pytest.approx(4.0, rel=1e-6)
        assert fits["sorting"]["predicted_rate"] == pytest.approx(5.0)
        assert fits["time_scale_separation"]["fitted_ratio"] == pytest.approx(25.0, rel=1e-5)

    def test_predicted_rates_are_the_run_records(self, tmp_path):
        # core forms each prediction; run.json and fits.json carry the same value
        out = tmp_path / "out"
        init = {"kind": "gaussian", "target_entry_fraction": 0.2, "sd": 1.5}
        cfg = pde_cfg(tmp_path / "c.json", out, init=init, t_end=0.1, solver={"output_interval": 0.002})
        assert main(["pde", "--config", str(cfg)]) == 0
        # long enough to fit the learning rate, too short to fit sorting: one entry of each kind
        assert main(["analyze", str(out)]) == 3
        run = read_json(out / "run.json")
        fits = read_json(out / "fits.json")
        assert "rate" in fits["aggregate_learning"] and "error" in fits["sorting"]
        for name in ("aggregate_learning", "sorting"):
            assert run["predicted_rates"][name] > 0
            assert fits[name]["predicted_rate"] == run["predicted_rates"][name]

    def test_fictitious_readme_run_meets_its_learning_rate(self, tmp_path):
        # under the fictitious rule the constant is E[p'], not E[p p']; the
        # sorting fit misses its band (criterion 5), so analyze exits 1
        doc = readme_config()
        doc["game"]["rule"] = "fictitious_stochastic"
        doc["out_dir"] = str(tmp_path / "out")
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["pde", "--config", str(tmp_path / "c.json")]) == 0
        out = tmp_path / "out" / "pde"
        assert main(["analyze", str(out)]) == 1
        run = read_json(out / "run.json")
        fits = read_json(out / "fits.json")
        assert fits["aggregate_learning"]["pass"] is True
        assert fits["aggregate_learning"]["predicted_rate"] == run["learning_constant"] * run["derived"]["r"]

    def test_separation_below_its_minimum_fails_the_run(self, tmp_path):
        # both rates in their bands, 100 against 100 and 6 against 5, but a
        # fitted ratio of 100 / 6 = 16.7 falls short of MIN_SEPARATION
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir, rate_b=6.0)
        assert main(["analyze", str(run_dir)]) == 1
        fits = read_json(run_dir / "fits.json")
        assert fits["aggregate_learning"]["pass"] is True
        assert fits["sorting"]["pass"] is True
        assert fits["time_scale_separation"]["fitted_ratio"] == pytest.approx(100.0 / 6.0, rel=1e-5)
        assert fits["time_scale_separation"]["minimum"] == MIN_SEPARATION
        assert fits["time_scale_separation"]["pass"] is False
        assert fits["pass"] is False

    def test_sorting_rate_outside_its_band_fails_the_run(self, tmp_path):
        # 2.4 against a target of 5 lies below 5 / RATE_FACTOR, while the
        # fitted ratio of 100 / 2.4 = 41.7 clears MIN_SEPARATION
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir, rate_b=2.4)
        assert main(["analyze", str(run_dir)]) == 1
        fits = read_json(run_dir / "fits.json")
        assert fits["aggregate_learning"]["pass"] is True
        assert fits["sorting"]["pass"] is False
        assert fits["time_scale_separation"]["pass"] is True
        assert fits["pass"] is False

    def test_fits_json_records_the_fixed_bands(self, tmp_path):
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir)
        assert main(["analyze", str(run_dir)]) == 0
        fits = read_json(run_dir / "fits.json")
        assert fits["factor"] == RATE_FACTOR
        assert fits["epsilon"] == SORTING_EPSILON
        assert fits["time_scale_separation"]["minimum"] == MIN_SEPARATION

    def test_help_lists_only_run_dir_and_out(self, capsys):
        assert main(["analyze", "--help"]) == 0
        usage = capsys.readouterr().out
        assert "run_dir" in usage and "--out" in usage
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == {"--help", "--out"}

    def test_out_flag_redirects_fits(self, tmp_path):
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir)
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f" / "fits.json").is_file()
        assert not (run_dir / "fits.json").exists()

    def test_unfittable_series_exits_runtime(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        t = np.arange(0.0, 0.01, 0.002)  # far too short for either decay
        series = ObservableSeries(
            t=t, a=0.5 - 0.3 * np.exp(-10.0 * t), b=0.2 * np.exp(-4.0 * t)
        )
        write_series(run_dir / "series.csv", series)
        write_json(
            run_dir / "run.json",
            {"config": {"game": dict(GAME_PDE)}, "learning_constant": 0.01},
        )
        assert main(["analyze", str(run_dir)]) == 3
        fits = read_json(run_dir / "fits.json")
        for name in ("aggregate_learning", "sorting"):
            assert set(fits[name]) == {"error", "predicted_rate"}
        assert "time_scale_separation" not in fits
        assert fits["pass"] is None
        assert "fit" in capsys.readouterr().err

    @pytest.mark.parametrize("learning_constant", [0.0, -0.1])
    def test_nonpositive_predicted_rate_is_a_fit_error(self, tmp_path, capsys, learning_constant):
        # a series that decays cleanly, against a run record predicting no decay
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir)
        record = read_json(run_dir / "run.json")
        write_json(run_dir / "run.json", dict(record, learning_constant=learning_constant))
        assert main(["analyze", str(run_dir)]) == 3
        fits = read_json(run_dir / "fits.json")
        assert "not positive" in fits["aggregate_learning"]["error"]
        assert fits["aggregate_learning"]["predicted_rate"] == learning_constant * 1000.0
        assert fits["pass"] is None
        assert "aggregate-learning fit" in capsys.readouterr().err

    @pytest.mark.parametrize("learning_constant", ["0.1", None, [0.1]])
    def test_non_numeric_learning_constant_is_config_error(self, tmp_path, capsys, learning_constant):
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir)
        record = read_json(run_dir / "run.json")
        write_json(run_dir / "run.json", dict(record, learning_constant=learning_constant))
        assert main(["analyze", str(run_dir)]) == 2
        assert "learning_constant" in capsys.readouterr().err
        assert not (run_dir / "fits.json").exists()

    def test_missing_run_json_is_config_error(self, tmp_path):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        assert main(["analyze", str(run_dir)]) == 2

    def test_run_json_that_is_not_json_is_config_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir)
        (run_dir / "run.json").write_text('{"learning_constant": 0.1,')
        assert main(["analyze", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{run_dir / 'run.json'}: not a usable run record (Expecting" in err
        assert not (run_dir / "fits.json").exists()

    @pytest.mark.parametrize(
        "game",
        [dict(GAME_PDE, n_agents="1000"), [], dict(GAME_PDE, n_agents=True, capacity=1)],
        ids=["string-count", "list", "bool-count"],
    )
    def test_malformed_game_section_is_config_error(self, tmp_path, capsys, game):
        run_dir = tmp_path / "run"
        self.synthetic_run(run_dir)
        write_json(run_dir / "run.json", {"config": {"game": game}, "learning_constant": 0.1})
        assert main(["analyze", str(run_dir)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (run_dir / "fits.json").exists()


class TestCompare:
    @staticmethod
    def series_pair(tmp_path, offset=0.0):
        t = np.linspace(0.0, 1.0, 101)
        base = ObservableSeries(
            t=t, a=0.5 - 0.3 * np.exp(-3.0 * t), b=0.1 * np.exp(-2.0 * t)
        )
        shifted = ObservableSeries(t=t, a=base.a + offset, b=base.b)
        write_series(tmp_path / "first.csv", base)
        write_series(tmp_path / "second.csv", shifted)
        return str(tmp_path / "first.csv"), str(tmp_path / "second.csv")

    def test_self_comparison_is_exact(self, tmp_path):
        first, _ = self.series_pair(tmp_path)
        code = main(["compare", first, first, "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "compare.json")
        # ComparisonResult's fields
        for column in ("a", "b"):
            assert set(payload["fields"][column]) == {"sup_norm", "rmse", "t_at_max", "n_points"}
        assert payload["fields"]["a"]["sup_norm"] == 0.0
        assert payload["fields"]["b"]["rmse"] == 0.0

    def test_offset_shows_up_as_sup_norm(self, tmp_path):
        first, second = self.series_pair(tmp_path, offset=0.01)
        code = main(["compare", first, second, "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "compare.json")
        assert payload["fields"]["a"]["sup_norm"] == pytest.approx(0.01, abs=1e-12)

    def test_max_sup_gate(self, tmp_path):
        first, second = self.series_pair(tmp_path, offset=0.01)
        args = ["compare", first, second, "--out", str(tmp_path)]
        assert main(args + ["--max-sup", "0.02"]) == 0
        assert main(args + ["--max-sup", "0.005"]) == 1
        payload = read_json(tmp_path / "compare.json")
        assert payload["check"]["pass"] is False
        assert payload["check"]["value"] == pytest.approx(0.01, abs=1e-12)

    def test_missing_file_is_config_error(self, tmp_path):
        first, _ = self.series_pair(tmp_path)
        assert main(["compare", first, str(tmp_path / "nope.csv")]) == 2

    def test_non_finite_series_is_config_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a,b\n0.0,0.5,0.1\nnan,0.4,0.1\n0.2,nan,0.1\n")
        assert main(["compare", str(path), str(path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "compare.json").exists()


class TestOracleCheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["oracle-check", "--instances", "100"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "100 instances" in out
        # the counts line is not a third gap for the gap readers
        assert len(re.findall(r"worst gap", out)) == 2
        assert re.search(r"enumerated 100 instances in \d+ blocks, \d+ patterns", out)

    def test_agent_cap_enforced(self):
        assert main(["oracle-check", "--instances", "5", "--max-agents", "13"]) == 2

    def test_zero_tolerance_fails(self):
        assert main(["oracle-check", "--instances", "20", "--tolerance", "0"]) == 1

    @pytest.mark.parametrize("name", ["m_probs", "drift"])
    def test_nan_gap_fails(self, monkeypatch, capsys, name):
        # NaN compares false with everything, so a running max() would drop it
        real = oracle._round_block

        def nan_block(*args):
            law = real(*args)
            return dataclasses.replace(law, **{name: np.full_like(getattr(law, name), np.nan)})

        monkeypatch.setattr(oracle, "_round_block", nan_block)
        assert main(["oracle-check", "--instances", "20"]) == 1
        out = capsys.readouterr().out
        assert "worst gap nan" in out
        assert "FAIL" in out

    @pytest.mark.parametrize("max_agents", [12, 5])
    @pytest.mark.parametrize("instances", [1, 513, 1200])
    def test_stdout_matches_reference_loop(self, capsys, max_agents, instances):
        # 513 and 1200 instances end in a partial chunk of the stream
        for seed in range(3):
            argv = ["--instances", str(instances), "--max-agents", str(max_agents), "--seed", str(seed)]
            assert main(["oracle-check", *argv]) == 0
            assert capsys.readouterr().out == reference_oracle_check(instances, max_agents, seed)

    @staticmethod
    def traced_peak(argv):
        """tracemalloc's peak over one oracle-check run, in bytes."""
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def largest_block(instances, max_agents, seed):
        """The most elements of any block's (B, 2^N) weight table in an
        oracle-check run: B is the most instances of one N and one rule a
        chunk draws, up to the cap BLOCK_ELEMENTS >> N."""
        rng = np.random.default_rng(seed)
        largest = 0
        for start in range(0, instances, cli.ORACLE_CHUNK):
            chunk = oracle.random_instance(rng, max_agents, min(cli.ORACLE_CHUNK, instances - start))
            for n, fictitious in set(zip(chunk.n_agents.tolist(), chunk.fictitious.tolist())):
                group = np.count_nonzero((chunk.n_agents == n) & (chunk.fictitious == fictitious))
                largest = max(largest, min(group, max(1, oracle.BLOCK_ELEMENTS >> n)) << n)
        return largest

    def test_memory_does_not_grow_with_instances(self, capsys):
        # a block's (B, 2^N) weight table is the shape of the kernel's
        # largest temporaries.  Up to 8 agents no block fills its cap (128
        # instances at N = 8, against about 32 of one N and one rule in a
        # chunk of 512), so the peak follows the largest group a chunk
        # draws.  At seed 2 both runs' largest block is the same 44
        # instances at N = 8, so a peak that grew with the instances would
        # be memory kept across chunks.  Up to 8 agents runs in half the
        # time of 12
        argv = ["oracle-check", "--max-agents", "8", "--seed", "2", "--instances"]
        assert self.largest_block(2000, 8, 2) == self.largest_block(8000, 8, 2) == 44 << 8
        assert main([*argv, "200"]) == 0  # caches every pattern table
        peaks = {instances: self.traced_peak([*argv, str(instances)]) for instances in (2000, 8000)}
        capsys.readouterr()
        assert peaks[8000] <= 1.1 * peaks[2000]
        # a drawn chunk of instances and one block's temporaries: about 1 MiB
        assert peaks[8000] <= 1.5 * 2**20

    def test_memory_at_twelve_agents(self, capsys):
        # N = 12 blocks hold 8 instances each, and their pattern tables are
        # the largest cached
        argv = ["oracle-check", "--max-agents", "12", "--instances"]
        assert main([*argv, "200"]) == 0  # caches every pattern table
        peak = self.traced_peak([*argv, "4000"])
        capsys.readouterr()
        assert peak <= 1.5 * 2**20


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("oracle-check", "--tolerance", "nan"),
        ("oracle-check", "--tolerance", "-1e-12"),
        ("oracle-check", "--instances", "0"),
        ("oracle-check", "--instances", "two"),
        ("oracle-check", "--max-agents", "0"),
        ("oracle-check", "--max-agents", "13"),
        ("oracle-check", "--seed", "-1"),
        ("compare", "--max-sup", "nan"),
        ("compare", "--max-sup", "-1"),
        ("compare", "--max-sup", "1e400"),
    ],
)
def test_bad_numeric_flag_exits_2_before_any_write(tmp_path, capsys, command, flag, value):
    run_dir = tmp_path / "run"
    TestAnalyze.synthetic_run(run_dir)
    out = tmp_path / "out"
    series = str(run_dir / "series.csv")
    args = {
        "oracle-check": ["oracle-check", "--instances", "5"],
        "compare": ["compare", series, series, "--out", str(out)],
    }[command]
    assert main(args + [flag, value]) == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--factor", "2"), ("--epsilon", "0.05"), ("--min-ratio", "20")])
def test_analyze_bands_are_not_flags(tmp_path, capsys, flag, value):
    # analyze judges every run against analysis's fixed bands
    run_dir = tmp_path / "run"
    TestAnalyze.synthetic_run(run_dir)
    out = tmp_path / "out"
    assert main(["analyze", str(run_dir), "--out", str(out), flag, value]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()
    assert not (run_dir / "fits.json").exists()


class TestMakePlots:
    def test_missing_series_is_config_error(self, tmp_path):
        assert main(["make-plots", str(tmp_path / "missing")]) == 2

    @staticmethod
    def run_dir_with(tmp_path, record):
        t = np.linspace(0.0, 1.0, 20)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        write_series(run_dir / "series.csv", ObservableSeries(t=t, a=t, b=t / 4))
        if isinstance(record, str):  # the text of a run.json that is not JSON
            (run_dir / "run.json").write_text(record)
        else:
            write_json(run_dir / "run.json", record)
        return run_dir

    def test_kappa_is_drawn_as_the_reference_line(self, tmp_path):
        run_dir = self.run_dir_with(tmp_path, {"derived": {"kappa": 0.25}})
        assert main(["make-plots", str(run_dir)]) == 0
        assert ", 0.25 with lines" in (run_dir / "plots.gp").read_text()

    @pytest.mark.parametrize(
        "record, key",
        [
            ([0.5], "list indices"),
            ({"derived": [0.5]}, "list indices"),
            ({"derived": {"kappa": "0.5); system('true'"}}, "derived.kappa"),
            ({"derived": {"kappa": None}}, "derived.kappa"),
            ({"derived": {"kappa": True}}, "derived.kappa"),
            ({"derived": {}}, "kappa"),
            ({}, "derived"),
            ('{"derived": {"kappa": 0.25}', "Expecting"),
        ],
        ids=["list-record", "list-derived", "string", "null", "bool", "no-kappa", "no-derived", "not-json"],
    )
    def test_malformed_run_record_is_config_error(self, tmp_path, capsys, record, key):
        run_dir = self.run_dir_with(tmp_path, record)
        assert main(["make-plots", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{run_dir / 'run.json'}: not a usable run record" in err
        assert key in err
        assert not (run_dir / "plots.gp").exists()

    def test_out_flag(self, tmp_path):
        t = np.linspace(0.0, 1.0, 20)
        series = ObservableSeries(t=t, a=np.full(20, 0.4), b=np.full(20, 0.1))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        write_series(run_dir / "series.csv", series)
        assert main(["make-plots", str(run_dir), "--out", str(tmp_path / "p")]) == 0
        assert (tmp_path / "p" / "plots.gp").is_file()
