"""Flat-file formats for run artifacts.

Everything numeric is written as the shortest decimal string that parses
back to the same double, so re-emitting a parsed file is byte-identical
and a fixed seed gives a byte-identical series.csv.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .grid import DensityGrid
from .observables import ObservableSeries

SERIES_COLUMNS = ("t", "a", "b", "m_frac", "stderr_a", "stderr_b")


def format_float(x: float) -> str:
    return repr(float(x))


def write_series(path: str | Path, series: ObservableSeries) -> Path:
    """series.csv: t,a,b plus whichever optional columns the series carries."""
    path = Path(path)
    columns: list[tuple[str, np.ndarray]] = [
        ("t", series.t),
        ("a", series.a),
        ("b", series.b),
    ]
    if series.m_frac is not None:
        columns.append(("m_frac", series.m_frac))
    if series.stderr_a is not None:
        columns.append(("stderr_a", series.stderr_a))
    if series.stderr_b is not None:
        columns.append(("stderr_b", series.stderr_b))
    lines = [",".join(name for name, _ in columns)]
    arrays = [values for _, values in columns]
    for row in zip(*arrays):
        lines.append(",".join(format_float(x) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_series(path: str | Path) -> ObservableSeries:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty series file")
    header = lines[0].split(",")
    unknown = [name for name in header if name not in SERIES_COLUMNS]
    if unknown:
        raise ValueError(f"{path}: unknown column {unknown[0]!r}")
    for required in ("t", "a", "b"):
        if required not in header:
            raise ValueError(f"{path}: missing column {required!r}")
    data: dict[str, list[float]] = {name: [] for name in header}
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{i}: expected {len(header)} fields, got {len(parts)}")
        for name, part in zip(header, parts):
            data[name].append(float(part))
    kwargs = {name: np.asarray(vals) for name, vals in data.items()}
    return ObservableSeries(**kwargs)


def density_filename(t: float) -> str:
    return f"density_t{t:.10g}.csv"


def write_density(path: str | Path, density: DensityGrid) -> Path:
    path = Path(path)
    lines = ["q,f"]
    for q, f in zip(density.centers(), density.values):
        lines.append(f"{format_float(q)},{format_float(f)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(value) for value in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        # json has no literal for non-finite floats; keep files strict-parser safe
        return value if math.isfinite(value) else repr(value)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
