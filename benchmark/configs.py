"""Workload inputs: the CLI configs and arguments each workload runs.

Inputs are a function of the seed alone. The PDE solve is deterministic,
so on pde_acceptance the seed only fills the config's seed field; on the
agent workloads it seeds the replicas, and on oracle_sweep it seeds the
random instances.
"""

from __future__ import annotations

WORKLOADS = ("pde_acceptance", "abm_ensemble", "abm_large", "oracle_sweep")

ORACLE_INSTANCES = 4000
ORACLE_MAX_AGENTS = 12
ORACLE_TOLERANCE = 1e-12

_MODEL = {"kind": "logistic", "scale": 1.0, "center": 0.0}
_INIT = {"kind": "gaussian", "target_entry_fraction": 0.2, "sd": 1.5}


def _game(n_agents: int, payoff_scale: float, rounds_per_unit: int, rule: str) -> dict:
    return {
        "n_agents": n_agents,
        "capacity": n_agents // 2,
        "payoff_scale": payoff_scale,
        "rounds_per_unit": rounds_per_unit,
        "rule": rule,
    }


def _pde(rule: str, seed: int, out_dir: str) -> dict:
    # the README config, run on the density engine
    return {
        "engine": "pde",
        "game": _game(1000, 0.01, 100, rule),
        "model": _MODEL,
        "init": _INIT,
        "grid": {"q_min": -12.0, "q_max": 12.0, "n_cells": 800},
        "solver": {"output_interval": 0.001},
        "snapshot_times": [0.0, 0.06, 0.3],
        "t_end": 0.6,
        "seed": seed,
        "replicas": 8,
        "out_dir": out_dir,
    }


def _abm(game: dict, t_end: float, replicas: int, record_stride: int, seed: int) -> dict:
    return {
        "engine": "abm",
        "game": game,
        "model": _MODEL,
        "init": _INIT,
        "t_end": t_end,
        "seed": seed,
        "replicas": replicas,
        "record_stride": record_stride,
        "out_dir": "abm",
    }


def configs(workload: str, seed: int) -> dict[str, dict]:
    """Config documents of a workload, keyed by file stem, in run order."""
    if workload == "pde_acceptance":
        return {
            "pde_basic": _pde("basic_reinforcement", seed, "pde_basic"),
            "pde_fict": _pde("fictitious_stochastic", seed, "pde_fict"),
        }
    if workload == "abm_ensemble":
        # the acceptance agent scenario: kappa = 0.5, r = N h M = 1000
        game = _game(10_000, 1e-4, 1000, "basic_reinforcement")
        return {"abm": _abm(game, 1.0, 8, 1, seed)}
    if workload == "abm_large":
        # the same kappa and r at N = 10^6; 100 rounds
        game = _game(1_000_000, 1e-6, 1000, "fictitious_stochastic")
        return {"abm": _abm(game, 0.1, 2, 20, seed)}
    if workload == "oracle_sweep":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def cli_commands(workload: str, seed: int, config_dir: str) -> list[list[str]]:
    """The entrydyn subcommands a repetition runs, in order, as a CLI user would."""
    runs = [
        [cfg["engine"], "--config", f"{config_dir}/{stem}.json"]
        for stem, cfg in configs(workload, seed).items()
    ]
    if workload == "pde_acceptance":
        runs.append(["analyze", "pde_basic"])
    elif workload == "abm_ensemble":
        runs.append(["analyze", "abm"])
    elif workload == "oracle_sweep":
        runs.append(
            [
                "oracle-check",
                "--instances", str(ORACLE_INSTANCES),
                "--max-agents", str(ORACLE_MAX_AGENTS),
                "--seed", str(seed),
                "--tolerance", repr(ORACLE_TOLERANCE),
            ]
        )
    return runs
