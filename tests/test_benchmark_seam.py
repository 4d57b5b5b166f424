"""The parts of the program that the benchmark under benchmark/ reads.

The benchmark's files change only in their own changes, so these tests
pin what they use of the program: the config documents its workloads
write, the engine names rep.py rebinds on entrydyn.cli to stamp the
ready time, every name the traced run (--trace 1) reads directly when
layers.install wraps its targets (the eight modules, config.RunConfig,
core.Logistic and core.ErevRothRatio), the oracle-check report its
checks parse, the stored series digest of the agent ensemble and the
stored density solution its checks compare with. The tests read files
under benchmark/ and write none.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entrydyn import abm, cli, kinetic, oracle
from entrydyn.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))
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


def test_traced_run_finds_every_name_it_wraps(tmp_path):
    # install rebinds the program's functions, so it runs in a process of
    # its own; a name it reads that the program no longer defines raises
    paths = os.pathsep.join((str(ROOT / "src"), str(ROOT / "benchmark")))
    env = {**os.environ, "PYTHONPATH": paths, "PYTHONDONTWRITEBYTECODE": "1"}
    code = "import layers, spans; layers.install(spans.Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_oracle_report_parses_as_two_gaps(capsys):
    assert cli.main(["oracle-check", "--instances", "200"]) == 0
    failures, values = checks.check_oracle(capsys.readouterr().out)
    assert failures == []
    assert set(values) == {"oracle.worst_law_gap", "oracle.worst_drift_gap"}


def test_abm_ensemble_series_matches_stored_digest(tmp_path):
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
