"""Declarative run configuration: one JSON document per run.

The schema is strict on purpose: unknown keys anywhere are rejected and
every diagnostic names the offending key, so a typo cannot silently fall
back to a default. The resolved form (all defaults filled in) is what
run.json echoes, and it parses back through load order unchanged.

The init section parses straight into one of the `abm` initial-condition
types (`AllEqual`, `Gaussian`, `Explicit`, `TwoSpike`), and both engines
start from that one value: the agent engine draws its population from it
and the density engine takes `abm.initial_density` of it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_args

from . import abm
from .core import GameParams, LearningRule, Logistic, ErevRothRatio, ProbabilityModel
from .grid import DensityGrid, GridSpec, default_grid, gaussian_mean_for_entry_fraction


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


_ENGINES = ("abm", "pde", "both")
_TOP_KEYS = {
    "engine",
    "game",
    "model",
    "init",
    "t_end",
    "seed",
    "replicas",
    "record_stride",
    "out_dir",
    "grid",
    "solver",
    "snapshot_times",
}
# top-level scalars that command-line flags may override
OVERRIDABLE_KEYS = ("seed", "t_end", "replicas", "out_dir")

_GAME_KEYS = {"n_agents", "capacity", "payoff_scale", "rounds_per_unit", "rule"}
_MODEL_KEYS = {
    "logistic": {"kind", "scale", "center"},
    "erev_roth_ratio": {"kind", "baseline"},
}
_INIT_TYPES = {cls.kind: cls for cls in get_args(abm.InitialCondition)}
_INIT_KEYS = {
    kind: {"kind", *(f.name for f in fields(cls))} for kind, cls in _INIT_TYPES.items()
}
# a gaussian may give its mean implicitly, as the start's expected entry fraction
_INIT_KEYS["gaussian"].add("target_entry_fraction")
_GRID_KEYS = {"q_min", "q_max", "n_cells"}
_SOLVER_KEYS = {"output_interval", "cfl_safety"}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}: required key is missing")
    return section[key]


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true/false, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _as_section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    return value


def _parse_game(raw: dict) -> GameParams:
    section = _as_section(raw, "game")
    _check_keys(section, _GAME_KEYS, "game")
    rule_name = _as_str(_require(section, "rule", "game"), "game.rule")
    try:
        rule = LearningRule(rule_name)
    except ValueError:
        names = ", ".join(r.value for r in LearningRule)
        raise ConfigError(f"game.rule: {rule_name!r} is not one of {names}") from None
    try:
        return GameParams(
            n_agents=_as_int(_require(section, "n_agents", "game"), "game.n_agents"),
            capacity=_as_int(_require(section, "capacity", "game"), "game.capacity"),
            payoff_scale=_as_number(
                _require(section, "payoff_scale", "game"), "game.payoff_scale"
            ),
            rounds_per_unit=_as_int(
                _require(section, "rounds_per_unit", "game"), "game.rounds_per_unit"
            ),
            rule=rule,
        )
    except ValueError as exc:
        raise ConfigError(f"game: {exc}") from None


def _parse_model(raw: dict) -> ProbabilityModel:
    section = _as_section(raw, "model")
    kind = _as_str(_require(section, "kind", "model"), "model.kind")
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"model.kind: unknown model {kind!r}")
    _check_keys(section, _MODEL_KEYS[kind], "model")
    try:
        if kind == "logistic":
            return Logistic(
                scale=_as_number(section.get("scale", 1.0), "model.scale"),
                center=_as_number(section.get("center", 0.0), "model.center"),
            )
        return ErevRothRatio(
            baseline=_as_number(section.get("baseline", 1.0), "model.baseline")
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None


def _init_fields(cls: type, section: dict, model: ProbabilityModel) -> dict:
    """The init section's values for the fields of cls, type-checked and resolved."""
    if cls is abm.Explicit:
        values = _require(section, "values", "init")
        # JSON gives a list, resolved() the dataclass's tuple
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError("init.values: expected a non-empty list of numbers")
        return {"values": tuple(_as_number(v, "init.values") for v in values)}
    if cls is abm.Gaussian:
        sd = _as_number(_require(section, "sd", "init"), "init.sd")
        if ("mean" in section) == ("target_entry_fraction" in section):
            raise ConfigError("init: give exactly one of init.mean and init.target_entry_fraction")
        if "mean" in section:
            mean = _as_number(section["mean"], "init.mean")
        else:
            target = _as_number(section["target_entry_fraction"], "init.target_entry_fraction")
            if not isinstance(model, Logistic):
                raise ConfigError(
                    "init.target_entry_fraction: only solvable for the logistic model; "
                    "give init.mean instead"
                )
            if not 0.0 < target < 1.0:
                raise ConfigError(f"init.target_entry_fraction: must lie in (0, 1), got {target}")
            mean = gaussian_mean_for_entry_fraction(model, sd, target)
        snap = _as_bool(section.get("snap_to_lattice", False), "init.snap_to_lattice")
        return {"mean": mean, "sd": sd, "snap_to_lattice": snap}
    return {
        f.name: _as_number(_require(section, f.name, "init"), f"init.{f.name}")
        for f in fields(cls)
    }


def _parse_init(raw: dict, model: ProbabilityModel) -> abm.InitialCondition:
    """Validate the init section and build its start state, with the mean resolved."""
    section = _as_section(raw, "init")
    kind = _as_str(_require(section, "kind", "init"), "init.kind")
    if kind not in _INIT_TYPES:
        raise ConfigError(f"init.kind: unknown initial condition {kind!r}")
    _check_keys(section, _INIT_KEYS[kind], "init")
    cls = _INIT_TYPES[kind]
    # the fields are built inside the try because the gaussian mean solve
    # is the first to see, and reject, a negative sd
    try:
        return cls(**_init_fields(cls, section, model))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"init: {exc}") from None


def _parse_grid(raw: dict) -> GridSpec:
    section = _as_section(raw, "grid")
    _check_keys(section, _GRID_KEYS, "grid")
    try:
        return GridSpec(
            q_min=_as_number(_require(section, "q_min", "grid"), "grid.q_min"),
            q_max=_as_number(_require(section, "q_max", "grid"), "grid.q_max"),
            n_cells=_as_int(_require(section, "n_cells", "grid"), "grid.n_cells"),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    engine: str
    params: GameParams
    model: ProbabilityModel
    init: abm.InitialCondition
    t_end: float
    seed: int
    replicas: int
    record_stride: int
    out_dir: str
    grid: GridSpec | None
    output_interval: float | None
    cfl_safety: float
    snapshot_times: tuple[float, ...]

    def initial_density(self) -> DensityGrid:
        """The init section realized as a unit-mass density on the pde grid."""
        if self.grid is None:
            raise ConfigError("grid: required for the pde engine")
        return abm.initial_density(self.init, self.grid)

    def resolved(self) -> dict:
        """The full configuration with every default filled in; reparses cleanly."""
        model: dict = {}
        if isinstance(self.model, Logistic):
            model = {"kind": "logistic", "scale": self.model.scale, "center": self.model.center}
        else:
            model = {"kind": "erev_roth_ratio", "baseline": self.model.baseline}
        out: dict = {
            "engine": self.engine,
            "game": {
                "n_agents": self.params.n_agents,
                "capacity": self.params.capacity,
                "payoff_scale": self.params.payoff_scale,
                "rounds_per_unit": self.params.rounds_per_unit,
                "rule": self.params.rule.value,
            },
            "model": model,
            "init": {"kind": self.init.kind, **asdict(self.init)},
            "t_end": self.t_end,
            "seed": self.seed,
            "replicas": self.replicas,
            "record_stride": self.record_stride,
            "out_dir": self.out_dir,
            "snapshot_times": list(self.snapshot_times),
        }
        if self.grid is not None:
            out["grid"] = {
                "q_min": self.grid.q_min,
                "q_max": self.grid.q_max,
                "n_cells": self.grid.n_cells,
            }
        solver: dict = {"cfl_safety": self.cfl_safety}
        if self.output_interval is not None:
            solver["output_interval"] = self.output_interval
        out["solver"] = solver
        return out


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"top level: expected an object, got {raw!r}")
    _check_keys(raw, _TOP_KEYS, "the top level")

    engine = _as_str(_require(raw, "engine", "top level"), "engine")
    if engine not in _ENGINES:
        raise ConfigError(f"engine: expected one of {', '.join(_ENGINES)}, got {engine!r}")

    params = _parse_game(_require(raw, "game", "top level"))
    model = _parse_model(_require(raw, "model", "top level"))
    init = _parse_init(_require(raw, "init", "top level"), model)

    t_end = _as_number(_require(raw, "t_end", "top level"), "t_end")
    if not t_end > 0:
        raise ConfigError(f"t_end: must be positive, got {t_end}")

    seed = _as_int(raw.get("seed", 0), "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed: must fit in an unsigned 64-bit integer, got {seed}")
    replicas = _as_int(raw.get("replicas", 1), "replicas")
    if replicas < 1:
        raise ConfigError(f"replicas: must be >= 1, got {replicas}")
    record_stride = _as_int(raw.get("record_stride", 1), "record_stride")
    if record_stride < 1:
        raise ConfigError(f"record_stride: must be >= 1, got {record_stride}")
    out_dir = _as_str(raw.get("out_dir", "out"), "out_dir")

    needs_grid = engine in ("pde", "both")
    if engine != "abm" and not isinstance(model, Logistic):
        raise ConfigError("engine: the pde engine supports only the logistic model")
    grid: GridSpec | None = None
    if "grid" in raw:
        grid = _parse_grid(raw["grid"])
    elif needs_grid:
        grid = default_grid(model)

    snapshot_times_raw = raw.get("snapshot_times", [])
    if not isinstance(snapshot_times_raw, list):
        raise ConfigError("snapshot_times: expected a list of times")
    snapshot_times = tuple(
        _as_number(t, "snapshot_times") for t in snapshot_times_raw
    )
    for t in snapshot_times:
        if t < 0:
            raise ConfigError(f"snapshot_times: must be nonnegative, got {t}")
    if snapshot_times and grid is None:
        if isinstance(model, Logistic):
            grid = default_grid(model)
        else:
            raise ConfigError("grid: required to bin snapshots for this model")

    solver = _as_section(raw.get("solver", {}), "solver")
    _check_keys(solver, _SOLVER_KEYS, "solver")
    output_interval = None
    if "output_interval" in solver:
        output_interval = _as_number(solver["output_interval"], "solver.output_interval")
        if not output_interval > 0:
            raise ConfigError(
                f"solver.output_interval: must be positive, got {output_interval}"
            )
    cfl_safety = _as_number(solver.get("cfl_safety", 0.4), "solver.cfl_safety")
    if not 0 < cfl_safety <= 0.5:
        raise ConfigError(f"solver.cfl_safety: must lie in (0, 0.5], got {cfl_safety}")

    if isinstance(init, abm.Explicit) and engine in ("abm", "both"):
        if len(init.values) != params.n_agents:
            raise ConfigError(
                f"init.values: has {len(init.values)} entries for {params.n_agents} agents"
            )

    return RunConfig(
        engine=engine,
        params=params,
        model=model,
        init=init,
        t_end=t_end,
        seed=seed,
        replicas=replicas,
        record_stride=record_stride,
        out_dir=out_dir,
        grid=grid,
        output_interval=output_interval,
        cfl_safety=cfl_safety,
        snapshot_times=snapshot_times,
    )


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse a JSON config file, applying flag overrides to top-level scalars."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in OVERRIDABLE_KEYS:
            raise ConfigError(f"{key}: not an overridable config key")
        raw[key] = value
    return parse_config(raw)
