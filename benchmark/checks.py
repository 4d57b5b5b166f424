"""Checks on the outputs of one repetition.

A repetition runs the `entrydyn` CLI in process; the checks read the
artifacts it wrote and the engine results rep.py captured on their way
back to the CLI. Each returns the failed checks and the checked values.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

import configs

REFERENCE = Path(__file__).resolve().parent / "reference"

# sup-norm of a(t) and b(t) against the stored 800-cell explicit solution;
# that solution differs from a 1600-cell one by at most 2.5e-4
PDE_GAP_TOLERANCE = 1e-3
MASS_TOLERANCE = 1e-8
DENSITY_FLOOR = -1e-12
# criterion 7: ensemble a(t) against the density solution over [0, 5 / r]
TRACK_TOLERANCE = 0.02
FIT_FACTOR = 2.0


def _read_reference(name: str) -> np.ndarray:
    return np.loadtxt(REFERENCE / name, delimiter=",", skiprows=1, ndmin=2)


def _fit_check(run_dir: str, failures: list, values: dict) -> None:
    """Criterion 4 on the aggregate-learning fit `entrydyn analyze` wrote."""
    fits = Path(run_dir) / "fits.json"
    if not fits.is_file():
        failures.append(f"{fits}: not written")
        return
    entry = json.loads(fits.read_text())["aggregate_learning"]
    if "rate" not in entry:
        failures.append(f"{run_dir}: aggregate-learning fit failed: {entry.get('error')}")
        return
    rate, target = entry["rate"], entry["predicted_rate"]
    values[f"{run_dir}.fit_rate"] = rate
    if not target / FIT_FACTOR <= rate <= target * FIT_FACTOR:
        failures.append(f"{run_dir}: aggregate-learning rate {rate:.4g} outside factor 2 of {target:.4g}")


def check_pde(documents: dict, results: list) -> tuple[list[str], dict]:
    failures: list[str] = []
    values = {
        "kinetic.mass_residual_max": 0.0,
        "kinetic.density_min": np.inf,
        "kinetic.a_gap_ref": 0.0,
        "kinetic.b_gap_ref": 0.0,
    }
    if len(results) != len(documents):
        return [f"{len(results)} density solves for {len(documents)} configs"], values
    for document, result in zip(documents.values(), results):
        rule = document["game"]["rule"]
        densities = [f.values for _, f in result.snapshots] + [result.final.values]
        low = min(float(v.min()) for v in densities)
        values["kinetic.mass_residual_max"] = max(values["kinetic.mass_residual_max"], result.max_mass_residual)
        values["kinetic.density_min"] = min(values["kinetic.density_min"], low)
        if result.max_mass_residual > MASS_TOLERANCE:
            failures.append(f"{rule}: mass residual {result.max_mass_residual:.3g}")
        if low < DENSITY_FLOOR:
            failures.append(f"{rule}: density minimum {low:.3g}")
        ref = _read_reference(f"pde_{rule}.csv")
        series = result.series
        if series.t.shape != ref[:, 0].shape or not np.allclose(series.t, ref[:, 0], rtol=0, atol=1e-12):
            failures.append(f"{rule}: record times differ from the reference")
            continue
        for column, key in ((1, "a"), (2, "b")):
            gap = float(np.max(np.abs(getattr(series, key) - ref[:, column])))
            values[f"kinetic.{key}_gap_ref"] = max(values[f"kinetic.{key}_gap_ref"], gap)
            if not gap <= PDE_GAP_TOLERANCE:
                failures.append(f"{rule}: sup gap of {key} to the reference {gap:.3g} > {PDE_GAP_TOLERANCE}")
    _fit_check("pde_basic", failures, values)
    return failures, values


def check_abm(workload: str, seed: int, documents: dict, results: list) -> tuple[list[str], dict]:
    failures: list[str] = []
    values: dict = {}
    document = documents["abm"]
    stored = json.loads((REFERENCE / "series_sha256.json").read_text())[workload]
    expected = stored.get(str(seed))
    digest = hashlib.sha256((Path(document["out_dir"]) / "series.csv").read_bytes()).hexdigest()
    values["sha256_checked"] = expected is not None
    if expected is not None and expected != digest:
        failures.append(f"series.csv sha256 {digest[:12]} differs from the stored {expected[:12]} for seed {seed}")
    if len(results) != 1:
        return failures + [f"{len(results)} ensemble runs for one config"], values
    series = results[0]
    a, b = series.a, series.b
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        failures.append("non-finite a or b")
    if workload == "abm_large":
        if not (np.all((a >= 0) & (a <= 1)) and np.all((b >= 0) & (b <= 0.25))):
            failures.append("a outside [0, 1] or b outside [0, 1/4]")
        return failures, values
    ref = _read_reference("pde_basic_reinforcement.csv")
    game = document["game"]
    horizon = 5.0 / (game["n_agents"] * game["payoff_scale"] * game["rounds_per_unit"])
    window = series.t <= horizon + 1e-12
    track = np.interp(series.t[window], ref[:, 0], ref[:, 1])
    gap = float(np.max(np.abs(a[window] - track)))
    if not gap <= TRACK_TOLERANCE:
        failures.append(f"ensemble a(t) is {gap:.3g} from the density solution over [0, {horizon:g}]")
    _fit_check(document["out_dir"], failures, values)
    return failures, values


def check_oracle(report: str) -> tuple[list[str], dict]:
    """The gaps `entrydyn oracle-check` printed; its exit code already
    says whether they are within ORACLE_TOLERANCE."""
    gaps = [float(g) for g in re.findall(r"worst gap (\S+)", report)]
    if len(gaps) != 2:
        return [f"oracle-check printed {len(gaps)} worst gaps, not 2"], {}
    values = {"oracle.worst_law_gap": gaps[0], "oracle.worst_drift_gap": gaps[1]}
    failures = [
        f"{name} {gap:.3g} > {configs.ORACLE_TOLERANCE}"
        for name, gap in zip(("worst law gap", "worst drift gap"), gaps)
        if not gap <= configs.ORACLE_TOLERANCE
    ]
    return failures, values


def check(workload: str, seed: int, results: dict[str, list], report: str) -> tuple[list[str], dict]:
    documents = configs.configs(workload, seed)
    if workload == "pde_acceptance":
        return check_pde(documents, results["solve"])
    if workload == "oracle_sweep":
        return check_oracle(report)
    return check_abm(workload, seed, documents, results["ensemble_run"])
