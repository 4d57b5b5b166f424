"""Flat-file formats for run artifacts.

Everything numeric is written as the shortest decimal string that parses
back to the same double, so re-emitting a parsed file is byte-identical
and a fixed seed gives a byte-identical series.csv.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np

from .grid import DensityGrid
from .observables import ObservableSeries


def format_float(x: float) -> str:
    return repr(float(x))


def write_series(path: str | Path, series: ObservableSeries) -> Path:
    """series.csv: one column per ObservableSeries field the series carries, in field order."""
    path = Path(path)
    names = [f.name for f in fields(series) if getattr(series, f.name) is not None]
    lines = [",".join(names)]
    for row in zip(*(getattr(series, name).tolist() for name in names)):
        lines.append(",".join(format_float(x) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_series(path: str | Path) -> ObservableSeries:
    """A series.csv as written: every column a field, every field without a default present."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty series file")
    header = lines[0].split(",")
    columns = fields(ObservableSeries)
    known = {f.name for f in columns}
    for i, name in enumerate(header):
        if name not in known:
            raise ValueError(f"{path}: unknown column {name!r}")
        if name in header[:i]:
            raise ValueError(f"{path}: repeated column {name!r}")
    for f in columns:
        if f.default is MISSING and f.name not in header:
            raise ValueError(f"{path}: missing column {f.name!r}")
    data: dict[str, list[float]] = {name: [] for name in header}
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{i}: expected {len(header)} fields, got {len(parts)}")
        try:
            for name, part in zip(header, parts):
                data[name].append(float(part))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: {exc}") from None
    try:
        return ObservableSeries(**{name: np.asarray(vals) for name, vals in data.items()})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def density_filename(t: float) -> str:
    return f"density_t{t:.10g}.csv"


def write_density(path: str | Path, density: DensityGrid) -> Path:
    path = Path(path)
    lines = ["q,f"]
    for q, f in zip(density.centers().tolist(), density.values.tolist()):
        lines.append(f"{format_float(q)},{format_float(f)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def as_json(value):
    """value as JSON data: the one converter behind every run record.

    A dataclass becomes its kind, if it has one, and its fields; None
    fields are left out, as the config parser reads an absent key as its
    default.  An enum becomes its value, a tuple a list, and a non-finite
    float its repr, as json has no literal for it.  Any other value passes
    through, so a value json does not know (a numpy integer, say) makes
    json.dumps raise rather than be written.
    """
    if is_dataclass(value):
        out = {"kind": value.kind} if hasattr(value, "kind") else {}
        for f in fields(value):
            item = getattr(value, f.name)
            if item is not None:
                out[f.name] = as_json(item)
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {key: as_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        # keep files strict-parser safe; float() as a numpy float's repr names its type
        return repr(float(value))
    return value


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    text = json.dumps(as_json(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
