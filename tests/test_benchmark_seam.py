"""The parts of the program that the benchmark under benchmark/ reads.

The benchmark's files change only in their own changes, so these tests
pin what they use of the program: the config documents its workloads
write, the engine names rep.py rebinds on entrydyn.cli to stamp the
ready time, the stored series digest of the agent ensemble and the
stored density solution its checks compare with. The tests read files
under benchmark/ and write none.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from entrydyn import abm, cli, kinetic, oracle
from entrydyn.config import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
import checks  # noqa: E402
import configs  # noqa: E402
import rep  # noqa: E402


@pytest.mark.parametrize("workload", configs.WORKLOADS)
def test_workload_configs_parse(workload):
    for document in configs.configs(workload, 0).values():
        parse_config(document)


def test_cli_calls_the_engines_rep_rebinds():
    engines = {
        "solve": kinetic.solve,
        "ensemble_run": abm.ensemble_run,
        "random_instance": oracle.random_instance,
    }
    assert set(rep.ENGINES) == set(engines)
    for name, engine in engines.items():
        assert getattr(cli, name) is engine


def test_abm_ensemble_series_matches_stored_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTRYDYN_THREADS", raising=False)
    config = tmp_path / "abm.json"
    config.write_text(json.dumps(configs.configs("abm_ensemble", 0)["abm"]))
    assert cli.main(["abm", "--config", str(config), "--out", str(tmp_path / "abm")]) == 0
    digest = hashlib.sha256((tmp_path / "abm" / "series.csv").read_bytes()).hexdigest()
    stored = json.loads((checks.REFERENCE / "series_sha256.json").read_text())
    assert digest == stored["abm_ensemble"]["0"]


def test_acceptance_solve_stays_near_the_stored_solution(pde_acceptance):
    # pde_acceptance is the benchmark's basic-rule density run
    reference = checks._read_reference("pde_basic_reinforcement.csv")
    series = pde_acceptance.series
    assert series.t.shape == reference[:, 0].shape
    assert np.allclose(series.t, reference[:, 0], rtol=0, atol=1e-12)
    for column, key in ((1, "a"), (2, "b")):
        gap = np.max(np.abs(getattr(series, key) - reference[:, column]))
        assert gap <= checks.PDE_GAP_TOLERANCE
