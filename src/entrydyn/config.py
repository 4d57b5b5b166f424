"""Declarative run configuration: one JSON document per run.

The schema is strict on purpose: unknown keys anywhere are rejected and
every diagnostic names the offending key, so a typo cannot silently fall
back to a default. The resolved form (all defaults filled in) is what
run.json echoes, and it parses back through load order unchanged.

`RunConfig` mirrors the document: its fields are the top-level keys.
The game, model, grid, init and solver sections each parse through the
dataclass they build: its fields are the section's keys, a field without
a default is a required key, and the field's annotation picks the reader
of its value. `resolved()` writes the same dataclasses back out. The
init section parses straight into one of the `abm` initial-condition
types (`AllEqual`, `Gaussian`, `Explicit`, `TwoSpike`), and both engines
start from that one value: the agent engine draws its population from it
and the density engine takes `abm.initial_density` of it.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_type_hints

from . import abm
from .core import GameParams, LearningRule, Logistic, ProbabilityModel
from .grid import DensityGrid, GridSpec, default_grid, gaussian_mean_for_entry_fraction
from .kinetic import SolverOptions


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


_ENGINES = ("abm", "pde", "both")
# top-level scalars that command-line flags may override
OVERRIDABLE_KEYS = ("seed", "t_end", "replicas", "out_dir")

_MODEL_TYPES = {cls.kind: cls for cls in get_args(ProbabilityModel)}
_INIT_TYPES = {cls.kind: cls for cls in get_args(abm.InitialCondition)}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _key(where: str, key: str) -> str:
    """The name of key in diagnostics: bare at the top level (where == ""), else dotted."""
    return f"{where}.{key}" if where else key


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{_key(where, key)}: required key is missing")
    return section[key]


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    # Python's JSON reader accepts NaN and Infinity, and reads 1e400 as inf
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {number!r}")
    return number


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_exact_int(value, where: str) -> int:
    """An integer that a float holds exactly: the game and grid counts all become floats."""
    number = _as_int(value, where)
    if abs(number) > 2**53:
        raise ConfigError(f"{where}: must not exceed 2**53 in magnitude")
    return number


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true/false, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _as_numbers(value, where: str) -> tuple[float, ...]:
    # JSON gives a list, resolved() the dataclass's tuple
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where}: expected a non-empty list of numbers")
    return tuple(_as_number(v, where) for v in value)


def _as_rule(value, where: str) -> LearningRule:
    name = _as_str(value, where)
    try:
        return LearningRule(name)
    except ValueError:
        names = ", ".join(r.value for r in LearningRule)
        raise ConfigError(f"{where}: {name!r} is not one of {names}") from None


def _as_section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    return value


# the reader of a config value, by the annotation of the field it fills
_READERS = {
    int: _as_exact_int,
    float: _as_number,
    float | None: _as_number,
    bool: _as_bool,
    tuple[float, ...]: _as_numbers,
}
# resolving a class's string annotations costs about 60 us; the classes are fixed
_annotations = cache(get_type_hints)


def _field_names(cls: type, *extra: str) -> set[str]:
    """The keys a config section for cls may hold: its fields, and extra."""
    return {f.name for f in fields(cls)} | set(extra)


def _kind(section: dict, types: dict[str, type], where: str, what: str) -> type:
    kind = _as_str(_require(section, "kind", where), f"{where}.kind")
    if kind not in types:
        raise ConfigError(f"{where}.kind: unknown {what} {kind!r}")
    return types[kind]


def _build(cls: type, section: dict, where: str, **given):
    """cls from the section's values for its fields, read by annotation.

    given holds fields already read; fields the section omits take their
    dataclass defaults, and a field without one is a required key.
    """
    types = _annotations(cls)
    values = dict(given)
    for f in fields(cls):
        if f.name in values:
            continue
        if f.name in section:
            values[f.name] = _READERS[types[f.name]](section[f.name], _key(where, f.name))
        elif f.default is MISSING:
            raise ConfigError(f"{_key(where, f.name)}: required key is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_game(raw: dict) -> GameParams:
    section = _as_section(raw, "game")
    _check_keys(section, _field_names(GameParams), "game")
    # the rule is read before any number, so a bad rule is the first fault named
    rule = _as_rule(_require(section, "rule", "game"), "game.rule")
    return _build(GameParams, section, "game", rule=rule)


def _parse_model(raw: dict) -> ProbabilityModel:
    section = _as_section(raw, "model")
    cls = _kind(section, _MODEL_TYPES, "model", "model")
    _check_keys(section, _field_names(cls, "kind"), "model")
    return _build(cls, section, "model")


def _parse_init(raw: dict, model: ProbabilityModel) -> abm.InitialCondition:
    """Validate the init section and build its start state, with the mean resolved."""
    section = _as_section(raw, "init")
    cls = _kind(section, _INIT_TYPES, "init", "initial condition")
    if cls is not abm.Gaussian:
        _check_keys(section, _field_names(cls, "kind"), "init")
        return _build(cls, section, "init")
    # a gaussian may give its mean implicitly, as the start's expected entry fraction
    _check_keys(section, _field_names(cls, "kind", "target_entry_fraction"), "init")
    sd = _as_number(_require(section, "sd", "init"), "init.sd")
    if ("mean" in section) == ("target_entry_fraction" in section):
        raise ConfigError("init: give exactly one of init.mean and init.target_entry_fraction")
    if "mean" in section:
        return _build(cls, section, "init")
    target = _as_number(section["target_entry_fraction"], "init.target_entry_fraction")
    if not isinstance(model, Logistic):
        raise ConfigError(
            "init.target_entry_fraction: only solvable for the logistic model; "
            "give init.mean instead"
        )
    if not 0.0 < target < 1.0:
        raise ConfigError(f"init.target_entry_fraction: must lie in (0, 1), got {target}")
    try:
        # the mean solve is the first to see, and reject, a negative sd
        mean = gaussian_mean_for_entry_fraction(model, sd, target)
    except ValueError as exc:
        raise ConfigError(f"init: {exc}") from None
    return _build(cls, section, "init", mean=mean)


def _parse_section(cls: type, raw: dict, where: str):
    """A section without a kind: cls built from exactly its fields."""
    section = _as_section(raw, where)
    _check_keys(section, _field_names(cls), where)
    return _build(cls, section, where)


def _dump(value):
    """value as config JSON: a dataclass as its kind, if it has one, and its fields.

    None fields are left out, as the parser reads an absent key as its
    default; an enum becomes its value and a tuple a list.
    """
    if is_dataclass(value):
        out = {"kind": value.kind} if hasattr(value, "kind") else {}
        for f in fields(value):
            item = getattr(value, f.name)
            if item is not None:
                out[f.name] = _dump(item)
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_dump(item) for item in value]
    return value


@dataclass(frozen=True)
class RunConfig:
    """A parsed config document: one field per top-level key."""

    engine: str
    game: GameParams
    model: ProbabilityModel
    init: abm.InitialCondition
    t_end: float
    seed: int
    replicas: int
    record_stride: int
    out_dir: str
    grid: GridSpec | None
    solver: SolverOptions
    snapshot_times: tuple[float, ...]

    def initial_density(self) -> DensityGrid:
        """The init section realized as a unit-mass density on the pde grid."""
        if self.grid is None:
            raise ConfigError("grid: required for the pde engine")
        return abm.initial_density(self.init, self.grid)

    def resolved(self) -> dict:
        """The full configuration with every default filled in; reparses cleanly."""
        return _dump(self)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"top level: expected an object, got {raw!r}")
    _check_keys(raw, _field_names(RunConfig), "the top level")

    engine = _as_str(_require(raw, "engine", ""), "engine")
    if engine not in _ENGINES:
        raise ConfigError(f"engine: expected one of {', '.join(_ENGINES)}, got {engine!r}")

    game = _parse_game(_require(raw, "game", ""))
    model = _parse_model(_require(raw, "model", ""))
    init = _parse_init(_require(raw, "init", ""), model)

    t_end = _as_number(_require(raw, "t_end", ""), "t_end")
    if not t_end > 0:
        raise ConfigError(f"t_end: must be positive, got {t_end}")

    seed = _as_int(raw.get("seed", 0), "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed: must fit in an unsigned 64-bit integer, got {seed}")
    # the two counts size loops and job lists: bounded like the game's integers
    replicas = _as_exact_int(raw.get("replicas", 1), "replicas")
    if replicas < 1:
        raise ConfigError(f"replicas: must be >= 1, got {replicas}")
    record_stride = _as_exact_int(raw.get("record_stride", 1), "record_stride")
    if record_stride < 1:
        raise ConfigError(f"record_stride: must be >= 1, got {record_stride}")
    out_dir = _as_str(raw.get("out_dir", "out"), "out_dir")

    if engine != "abm" and not isinstance(model, Logistic):
        raise ConfigError("engine: the density solver supports only the logistic model")
    grid = _parse_section(GridSpec, raw["grid"], "grid") if "grid" in raw else None

    snapshot_times_raw = raw.get("snapshot_times", [])
    if not isinstance(snapshot_times_raw, list):
        raise ConfigError("snapshot_times: expected a list of times")
    snapshot_times = tuple(
        _as_number(t, "snapshot_times") for t in snapshot_times_raw
    )
    for t in snapshot_times:
        if t < 0:
            raise ConfigError(f"snapshot_times: must be nonnegative, got {t}")
    # the pde engine and snapshots need a grid; the logistic model has a default one
    if grid is None and (engine != "abm" or snapshot_times):
        if not isinstance(model, Logistic):
            raise ConfigError("grid: required to bin snapshots for this model")
        grid = default_grid(model)

    solver = _parse_section(SolverOptions, raw.get("solver", {}), "solver")

    if isinstance(init, abm.Explicit) and engine in ("abm", "both"):
        if len(init.values) != game.n_agents:
            raise ConfigError(
                f"init.values: has {len(init.values)} entries for {game.n_agents} agents"
            )

    return RunConfig(
        engine=engine,
        game=game,
        model=model,
        init=init,
        t_end=t_end,
        seed=seed,
        replicas=replicas,
        record_stride=record_stride,
        out_dir=out_dir,
        grid=grid,
        solver=solver,
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
