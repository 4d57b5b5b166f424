"""series.csv and the ObservableSeries it holds: round trips and rejections."""

import numpy as np
import pytest

from entrydyn.abm import Gaussian, ensemble_run, simulate
from entrydyn.core import GameParams, LearningRule, Logistic
from entrydyn.grid import GridSpec, two_spike_density
from entrydyn.kinetic import SolverOptions, solve
from entrydyn.observables import ObservableSeries
from entrydyn.runio import read_series, write_series

PARAMS = GameParams(50, 25, 0.01, 100, LearningRule.BASIC_REINFORCEMENT)
MODEL = Logistic(1.0, 0.0)


def density_series():
    f0 = two_spike_density(GridSpec(-16.0, 16.0, 200), -15.0, 15.0, 0.5)
    return solve(f0, PARAMS, MODEL, 0.02, SolverOptions(output_interval=0.005)).series


def agent_series():
    return simulate(PARAMS, MODEL, Gaussian(0.0, 1.0), 0.05, 3).series


def ensemble_series():
    return ensemble_run(PARAMS, MODEL, Gaussian(0.0, 1.0), 0.05, 3, base_seed=3)


@pytest.mark.parametrize(
    "make, header",
    [
        (density_series, "t,a,b"),
        (agent_series, "t,a,b,m_frac"),
        (ensemble_series, "t,a,b,m_frac,stderr_a,stderr_b"),
    ],
    ids=["density", "agent", "ensemble"],
)
def test_round_trip(tmp_path, make, header):
    series = make()
    first = write_series(tmp_path / "first.csv", series)
    assert first.read_text().splitlines()[0] == header
    back = read_series(first)
    for name in header.split(","):
        assert getattr(back, name).tobytes() == getattr(series, name).tobytes()
    second = write_series(tmp_path / "second.csv", back)
    assert second.read_bytes() == first.read_bytes()


def test_agent_series_ends_in_nan_m_frac(tmp_path):
    back = read_series(write_series(tmp_path / "s.csv", agent_series()))
    assert np.isnan(back.m_frac[-1]) and not np.any(np.isnan(back.m_frac[:-1]))


# a NaN time and a NaN entry fraction, each in a row of its own
NAN_SERIES = "t,a,b\n0.0,0.5,0.1\nnan,0.4,0.1\n0.2,nan,0.1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty series file"),
        ("t,a,b,c\n0.0,0.5,0.1,1.0\n", "unknown column 'c'"),
        ("a,b\n0.5,0.1\n", "missing column 't'"),
        ("t,b\n0.0,0.1\n", "missing column 'a'"),
        ("t,a\n0.0,0.5\n", "missing column 'b'"),
        ("t,a,b\n0.0,0.5,0.1\n0.1,0.5\n", r"s\.csv:3: expected 3 fields, got 2"),
        ("t,a,b,a\n0.0,0.5,0.1,0.5\n0.1,0.4,0.1,0.4\n", r"s\.csv: repeated column 'a'"),
        (NAN_SERIES, r"s\.csv: column t has a non-finite value"),
    ],
    ids=["empty", "unknown", "no-t", "no-a", "no-b", "field-count", "repeated", "nan"],
)
def test_read_series_rejects(tmp_path, text, message):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_series(path)


GOOD = {"t": [0.0, 0.1], "a": [0.5, 0.4], "b": [0.1, 0.2]}


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"stderr_a": [0.0]}, r"column stderr_a has shape \(1,\), expected \(2,\)"),
        ({"t": [], "a": [], "b": []}, "at least one record"),
        ({"t": [0.1, 0.1]}, "strictly increasing"),
        ({"a": [0.5, 1.1]}, r"entry fraction a outside \[0, 1\]"),
        ({"b": [0.1, 0.3]}, r"sorting coefficient b outside \[0, 1/4\]"),
        ({"a": [0.5, np.nan]}, "column a has a non-finite value"),
        ({"b": [np.inf, 0.1]}, "column b has a non-finite value"),
        ({"stderr_a": [0.0, np.nan]}, "column stderr_a has a non-finite value"),
        ({"stderr_b": [np.inf, 0.0]}, "column stderr_b has a non-finite value"),
    ],
    ids=[
        "shape", "no-records", "time-order", "a-range", "b-range",
        "nan-a", "inf-b", "nan-stderr-a", "inf-stderr-b",
    ],
)
def test_observable_series_rejects(columns, message):
    with pytest.raises(ValueError, match=message):
        ObservableSeries(**{**GOOD, **columns})
