"""Declarative run configuration: one JSON document per run.

The schema is strict on purpose: unknown keys anywhere are rejected and
every diagnostic names the offending key, so a typo cannot silently fall
back to a default. The resolved form (all defaults filled in) is what
run.json echoes, and it parses back through load order unchanged.

The document and each of its sections parse through the dataclass they
build, `RunConfig` for the top level: its fields are the keys, a field
without a default is a required key, the field's annotation picks the
reader of its value, and the dataclass checks the values it is given.
`resolved()` writes the same dataclasses back out through
`runio.as_json`, the converter of every run record. The
init section parses straight into one of the `abm` initial-condition
types (`AllEqual`, `Gaussian`, `Explicit`, `TwoSpike`), and both engines
start from that one value: the agent engine draws its population from it
and the density engine takes its `density` on the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import cache, partial
from pathlib import Path
from typing import get_args, get_type_hints

from . import abm, runio
from .core import GameParams, LearningRule, Logistic, ProbabilityModel
from .grid import GridSpec, default_grid
from .kinetic import SolverOptions


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


_ENGINES = ("abm", "pde", "both")

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


def read_number(value, where: str) -> float:
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
    # JSON and runio.as_json both give a list; a tuple from a Python caller
    # reads the same.  It may be empty: a dataclass that needs values says so
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of numbers")
    return tuple(read_number(v, where) for v in value)


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
    dataclass defaults, and a field without one is a required key.  A
    rejected value is named by its section, or, at the top level (where
    == ""), by the key the dataclass's own message starts with.
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
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def read_section(cls: type, value, where: str, *extra: str):
    """A section holding exactly cls's fields, and extra keys read elsewhere."""
    section = _as_section(value, where)
    _check_keys(section, _field_names(cls, *extra), where)
    return _build(cls, section, where)


def _as_model(value, where: str) -> ProbabilityModel:
    cls = _kind(_as_section(value, where), _MODEL_TYPES, where, "model")
    return read_section(cls, value, where, "kind")


def _parse_init(raw: dict, model: ProbabilityModel) -> abm.InitialCondition:
    """Validate the init section and build its start state, with the mean resolved."""
    section = _as_section(raw, "init")
    cls = _kind(section, _INIT_TYPES, "init", "initial condition")
    # a gaussian may give its mean implicitly, as the start's expected entry fraction
    if cls is not abm.Gaussian or "target_entry_fraction" not in section:
        return read_section(cls, section, "init", "kind")
    _check_keys(section, _field_names(cls, "kind", "target_entry_fraction"), "init")
    if "mean" in section:
        raise ConfigError("init: give exactly one of init.mean and init.target_entry_fraction")
    target = read_number(section["target_entry_fraction"], "init.target_entry_fraction")
    start = _build(cls, section, "init", mean=0.0)
    try:
        return start.with_entry_fraction(model, target)
    except ValueError as exc:
        raise ConfigError(f"init: {exc}") from None


# the reader of a config value, by the annotation of the field it fills
_READERS = {
    int: _as_exact_int,
    float: read_number,
    float | None: read_number,
    bool: _as_bool,
    str: _as_str,
    tuple[float, ...]: _as_numbers,
    LearningRule: _as_rule,
    ProbabilityModel: _as_model,
    GameParams: partial(read_section, GameParams),
    GridSpec | None: partial(read_section, GridSpec),
    SolverOptions: partial(read_section, SolverOptions),
}
# resolving a class's string annotations costs about 60 us; the classes are fixed
_annotations = cache(get_type_hints)


@dataclass(frozen=True)
class RunConfig:
    """A parsed config document: one field per top-level key, with its default."""

    engine: str
    game: GameParams
    model: ProbabilityModel
    init: abm.InitialCondition
    t_end: float
    seed: int = 0
    # the two counts size loops and job lists: read, and bounded, like the game's integers
    replicas: int = 1
    record_stride: int = 1
    out_dir: str = "out"
    grid: GridSpec | None = None
    solver: SolverOptions = SolverOptions()
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(f"engine: expected one of {', '.join(_ENGINES)}, got {self.engine!r}")
        if not self.t_end > 0:
            raise ValueError(f"t_end: must be positive, got {self.t_end}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed: must fit in an unsigned 64-bit integer, got {self.seed}")
        if self.replicas < 1:
            raise ValueError(f"replicas: must be >= 1, got {self.replicas}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride: must be >= 1, got {self.record_stride}")
        if self.engine != "abm" and not isinstance(self.model, Logistic):
            raise ValueError("engine: the density solver supports only the logistic model")
        for t in self.snapshot_times:
            if t < 0:
                raise ValueError(f"snapshot_times: must be nonnegative, got {t}")
        # the pde engine and snapshots need a grid; the logistic model has a default one
        if self.grid is None and (self.engine != "abm" or self.snapshot_times):
            if not isinstance(self.model, Logistic):
                raise ValueError("grid: required to bin snapshots for this model")
            try:
                object.__setattr__(self, "grid", default_grid(self.model))
            except ValueError as exc:
                raise ValueError(f"grid: {exc}") from None
        if isinstance(self.init, abm.Explicit) and self.engine != "pde":
            if len(self.init.values) != self.game.n_agents:
                raise ValueError(
                    f"init.values: has {len(self.init.values)} entries for {self.game.n_agents} agents"
                )

    def resolved(self) -> dict:
        """The full configuration with every default filled in; reparses cleanly."""
        return runio.as_json(self)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"top level: expected an object, got {raw!r}")
    _check_keys(raw, _field_names(RunConfig), "the top level")
    # what no field annotation reads: the init needs the model, and the
    # seed spans 64 bits
    model = _as_model(_require(raw, "model", ""), "model")
    given = {"model": model, "init": _parse_init(_require(raw, "init", ""), model)}
    if "seed" in raw:
        given["seed"] = _as_int(raw["seed"], "seed")
    return _build(RunConfig, raw, "", **given)


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse a JSON config file, applying flag overrides (None: keep) to top-level keys."""
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
        # a key that is not a config key is rejected by the parser, as in the file
        if value is not None:
            raw[key] = value
    return parse_config(raw)
