"""Regenerate the stored reference outputs with the entrydyn CLI.

    python3 benchmark/make_reference.py

Run from the root of a checkout. Writes benchmark/reference/:
pde_<rule>.csv, the series.csv of each pde_acceptance config, and
series_sha256.json, the sha256 of series.csv of each agent workload for
seeds 0 .. REFERENCE_SEEDS-1. The references pin the outputs of the commit they
were made at; regenerate them only when the outputs are meant to change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import configs
from run import OUT, child_env

REFERENCE = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = 32


def run_cli(workload: str, seed: int) -> Path:
    work = OUT / "reference" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    for stem, document in configs.configs(workload, seed).items():
        (work / "configs" / f"{stem}.json").write_text(json.dumps(document))
    for command in configs.cli_commands(workload, seed, str(work / "configs")):
        if command[0] in ("abm", "pde"):
            subprocess.run(
                [sys.executable, "-m", "entrydyn.cli", *command],
                cwd=work, env=child_env(), check=True, capture_output=True,
            )
    return work


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)

    work = run_cli("pde_acceptance", 0)
    for stem, document in configs.configs("pde_acceptance", 0).items():
        rule = document["game"]["rule"]
        shutil.copyfile(work / document["out_dir"] / "series.csv", REFERENCE / f"pde_{rule}.csv")

    digests: dict[str, dict[str, str]] = {}
    for workload in ("abm_ensemble", "abm_large"):
        digests[workload] = {}
        for seed in range(REFERENCE_SEEDS):
            series = run_cli(workload, seed) / "abm" / "series.csv"
            digests[workload][str(seed)] = hashlib.sha256(series.read_bytes()).hexdigest()
            print(workload, seed, digests[workload][str(seed)], flush=True)
    (REFERENCE / "series_sha256.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
