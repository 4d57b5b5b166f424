"""One repetition of one workload in a fresh interpreter.

run.py starts this script once per repetition, from the directory the
artifacts go to, with PYTHONPATH pointing at the checkout's src:

    python3 benchmark/rep.py --workload W --seed N --trace 0|1 --configs DIR --t0 T

It runs the workload's `entrydyn` subcommands through entrydyn.cli.main,
in order, as a CLI user would. The run is ready when the CLI first enters
an engine (cli.solve, cli.ensemble_run or cli.random_instance) and done
when the last subcommand returns. T is time.monotonic() in the parent
just before the start, so the parent can measure set-up from interpreter
start. The last line of stdout is a JSON report: monotonic times at ready
and done, peak RSS, the time to import numpy and scipy, the failed
checks, the checked values and, with --trace 1, the per-layer values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from spans import Tracer

ENGINES = ("solve", "ensemble_run", "random_instance")
# subcommands whose exit code 1 is a check of their own: analyze exits 1
# here because the known-red sorting fit misses its band, so its
# aggregate-learning fit is checked on fits.json instead
ANALYZE_EXITS = (0, 1)


def capture_engines(cli, tracer: Tracer, results: dict[str, list], entered: list[float]) -> None:
    """Rebind the engines cli calls so the first call stamps the ready time
    and density solves and ensembles hand their results to the checks."""
    for name in ENGINES:
        original = getattr(cli, name)
        keep = name != "random_instance"

        def engine(*args, _original=original, _name=name, _keep=keep, **kwargs):
            if not entered:
                entered.append(time.monotonic())
                tracer.phase = "run"
            result = _original(*args, **kwargs)
            if _keep:
                results[_name].append(result)
            return result

        setattr(cli, name, engine)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--configs", required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    tracer = Tracer()
    with tracer.region("setup.import"):
        # the dependencies alone first: no entrydyn code runs in this
        # region, so its time measures the host's speed, not the program
        with tracer.region("setup.deps_import"):
            import numpy
            import scipy
            import scipy.optimize
            import scipy.special

        from entrydyn import cli
    import checks
    import configs

    if args.trace:
        import layers

        layers.install(tracer)
    results: dict[str, list] = {name: [] for name in ENGINES}
    entered: list[float] = []
    capture_engines(cli, tracer, results, entered)

    failures: list[str] = []
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        for command in configs.cli_commands(args.workload, args.seed, args.configs):
            try:
                code = cli.main(command)
            except Exception as exc:  # a failing run is counted, not fatal
                traceback.print_exc()
                failures.append(f"entrydyn {command[0]} raised {type(exc).__name__}: {exc}")
                break
            if code not in (ANALYZE_EXITS if command[0] == "analyze" else (0,)):
                failures.append(f"entrydyn {' '.join(command)} exited with {code}")
    done = time.monotonic()
    tracer.phase = "check"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not entered:
        failures.append(f"the CLI entered none of {', '.join('cli.' + n for n in ENGINES)}")

    values: dict = {}
    if not failures:
        found, values = checks.check(args.workload, args.seed, results, report.getvalue())
        failures.extend(found)
    out = {
        "ready": entered[0] if entered else done,
        "done": done,
        "peak_rss_mb": peak_rss_mb,
        "deps_import_s": tracer.regions["setup.deps_import"],
        "failures": failures,
        "values": values,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        abm_games = [d["game"] for d in configs.configs(args.workload, args.seed).values() if d["engine"] == "abm"]
        n_agents = abm_games[0]["n_agents"] if abm_games else None
        out["layers"] = layers.layer_metrics(tracer, n_agents, values)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
