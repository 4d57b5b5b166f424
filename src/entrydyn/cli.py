"""Command-line front end.

One subcommand runs one job from a JSON config and leaves a directory of
flat artifacts (series.csv, run.json, optional density snapshots) that
the analyze/compare/make-plots subcommands consume. Exit codes: 0 ok,
1 a requested check failed, 2 bad configuration or input, 3 runtime
failure inside a run.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import runio
from .abm import ensemble_run, init_population, max_workers_from_env, simulate
from .analysis import (
    FitError,
    aggregate_learning_fit,
    compare_series,
    initial_learning_constant,
    initial_learning_constant_from_propensities,
    sorting_fit,
    within_factor,
)
from .config import ConfigError, RunConfig, _as_number, _parse_game, load_config
from .core import DomainError, GameParams, aggregate_learning_rate, predicted_time_scales, sorting_rate
from .kinetic import SolverOptions, solve
from .oracle import (
    MAX_AGENTS,
    expected_drift_check,
    poisson_binomial_pmf,
    random_instance,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _number_in(low: float, high: float = math.inf, *, closed: bool = True):
    """argparse type: a float in [low, high), or (low, high) unless closed; NaN is in neither.

    argparse names the flag of a bad value, and main exits 2 before the subcommand runs.
    """
    interval = f"{'[' if closed else '('}{low:g}, {high:g})"

    def number(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (low <= value < high if closed else low < value < high):
            raise argparse.ArgumentTypeError(f"expected a number in {interval}, got {text!r}")
        return value

    return number


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "t_end": args.t_end,
        "replicas": args.replicas,
        "out_dir": args.out,
    }


def _write_snapshots(out: Path, snapshots) -> dict[str, str]:
    names: dict[str, str] = {}
    for t, density in snapshots:
        name = runio.density_filename(t)
        runio.write_density(out / name, density)
        names[f"{t:.10g}"] = name
    return names


def _run_payload(
    command: str,
    cfg: RunConfig,
    learning_constant: float,
    n_records: int,
    snapshot_names: dict[str, str],
) -> dict:
    p = cfg.params
    scales = predicted_time_scales(p)
    return {
        "command": command,
        "config": cfg.resolved(),
        "derived": {
            "kappa": p.kappa,
            "r": p.r,
            "tau": p.tau,
            "tau_al": scales.aggregate_learning,
            "tau_s": scales.sorting,
        },
        "learning_constant": learning_constant,
        "predicted_rates": {
            "aggregate_learning": aggregate_learning_rate(p, learning_constant),
            "sorting": sorting_rate(p),
        },
        "seed": cfg.seed,
        "n_records": n_records,
        "snapshots": snapshot_names,
    }


def _cmd_abm(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    if cfg.engine not in ("abm", "both"):
        raise ConfigError(f"engine: config selects {cfg.engine!r}; this subcommand runs abm")
    if cfg.snapshot_times and cfg.replicas > 1:
        raise ConfigError("snapshot_times: supported only for single-replica abm runs")
    out = Path(cfg.out_dir)
    if cfg.engine == "both":
        out = out / "abm"
    out.mkdir(parents=True, exist_ok=True)

    # the start population serves c_p only; it is not kept through the run
    learning_constant = initial_learning_constant_from_propensities(
        init_population(cfg.params, cfg.init, cfg.seed), cfg.model
    )

    snapshot_names: dict[str, str] = {}
    if cfg.replicas == 1:
        result = simulate(
            cfg.params,
            cfg.model,
            cfg.init,
            cfg.t_end,
            cfg.seed,
            record_stride=cfg.record_stride,
            snapshot_times=cfg.snapshot_times,
            snapshot_grid=cfg.grid,
        )
        series = result.series
        snapshot_names = _write_snapshots(out, result.snapshots)
    else:
        series = ensemble_run(
            cfg.params,
            cfg.model,
            cfg.init,
            cfg.t_end,
            n_replicas=cfg.replicas,
            base_seed=cfg.seed,
            record_stride=cfg.record_stride,
            n_workers=min(cfg.replicas, max_workers_from_env()),
        )

    runio.write_series(out / "series.csv", series)
    payload = _run_payload("abm", cfg, learning_constant, len(series), snapshot_names)
    runio.write_json(out / "run.json", payload)
    print(f"wrote {out / 'series.csv'} ({len(series)} records)")
    return EXIT_OK


def _cmd_pde(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    if cfg.engine not in ("pde", "both"):
        raise ConfigError(f"engine: config selects {cfg.engine!r}; this subcommand runs pde")
    out = Path(cfg.out_dir)
    if cfg.engine == "both":
        out = out / "pde"
    out.mkdir(parents=True, exist_ok=True)

    f0 = cfg.initial_density()
    learning_constant = initial_learning_constant(f0, cfg.model)
    options = SolverOptions(
        t_end=cfg.t_end,
        output_interval=cfg.output_interval,
        cfl_safety=cfg.cfl_safety,
        snapshot_times=cfg.snapshot_times,
    )
    result = solve(f0, cfg.params, cfg.model, options)

    runio.write_series(out / "series.csv", result.series)
    snapshot_names = _write_snapshots(out, result.snapshots)
    payload = _run_payload("pde", cfg, learning_constant, len(result.series), snapshot_names)
    payload["mass_residual"] = result.max_mass_residual
    payload["n_steps"] = result.n_steps
    payload["dt_min"] = result.dt_min
    payload["dt_max"] = result.dt_max
    runio.write_json(out / "run.json", payload)
    print(f"wrote {out / 'series.csv'} ({len(result.series)} records)")
    return EXIT_OK


@contextmanager
def _run_record(path: Path):
    """The payload of a run.json; a missing or mistyped field read from it is a ConfigError."""
    try:
        yield runio.read_json(path)
    except (KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: not a usable run record ({exc})") from None


def _load_run_dir(run_dir: Path) -> tuple[GameParams, float]:
    """The game and the learning constant c_p of a finished run."""
    with _run_record(run_dir / "run.json") as record:
        params = _parse_game(record["config"]["game"])
        learning_constant = _as_number(record["learning_constant"], "learning_constant")
    return params, learning_constant


def _fit_entry(fit, predicted: float, factor: float) -> dict:
    return {
        "rate": fit.rate,
        "tau": fit.tau,
        "log_amplitude": fit.log_amplitude,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
        "window": [fit.window[0], fit.window[1]],
        "predicted_rate": predicted,
        "ratio": fit.rate / predicted,
        "pass": within_factor(fit.rate, predicted, factor),
    }


def _cmd_analyze(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    params, learning_constant = _load_run_dir(run_dir)
    series = runio.read_series(run_dir / "series.csv")

    fits: dict = {"factor": args.factor, "epsilon": args.epsilon}
    errors = []

    try:
        fit_al, target_al = aggregate_learning_fit(series, params, learning_constant)
        fits["aggregate_learning"] = _fit_entry(fit_al, target_al, args.factor)
    except FitError as exc:
        fit_al = None
        fits["aggregate_learning"] = {
            "error": str(exc),
            "predicted_rate": aggregate_learning_rate(params, learning_constant),
        }
        errors.append(f"aggregate-learning fit: {exc}")

    try:
        fit_s, target_s = sorting_fit(series, params, epsilon=args.epsilon)
        fits["sorting"] = _fit_entry(fit_s, target_s, args.factor)
    except FitError as exc:
        fit_s = None
        fits["sorting"] = {
            "error": str(exc),
            "predicted_rate": sorting_rate(params),
        }
        errors.append(f"sorting fit: {exc}")

    if fit_al is not None and fit_s is not None:
        ratio = fit_s.tau / fit_al.tau
        fits["time_scale_separation"] = {
            "fitted_ratio": ratio,
            "predicted_ratio": predicted_time_scales(params).separation,
            "minimum": args.min_ratio,
            "pass": ratio >= args.min_ratio,
        }

    verdicts = [
        entry["pass"]
        for entry in (
            fits.get("aggregate_learning"),
            fits.get("sorting"),
            fits.get("time_scale_separation"),
        )
        if entry is not None and "pass" in entry
    ]
    fits["pass"] = bool(verdicts) and all(verdicts) if not errors else None

    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    runio.write_json(out_dir / "fits.json", fits)
    print(f"wrote {out_dir / 'fits.json'}")
    if errors:
        for line in errors:
            print(line, file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK if fits["pass"] else EXIT_CHECK_FAILED


def _cmd_compare(args: argparse.Namespace) -> int:
    first = runio.read_series(args.first)
    second = runio.read_series(args.second)
    fields: dict = {}
    for column in ("a", "b"):
        res = compare_series(first, second, column=column)
        fields[column] = {
            "sup_norm": res.sup_norm,
            "rmse": res.rmse,
            "t_at_max": res.t_at_max,
            "n_points": res.n_points,
        }
    payload: dict = {"first": str(args.first), "second": str(args.second), "fields": fields}

    passed = True
    if args.max_sup is not None:
        value = fields[args.column]["sup_norm"]
        passed = value <= args.max_sup
        payload["check"] = {
            "column": args.column,
            "max_sup": args.max_sup,
            "value": value,
            "pass": passed,
        }

    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    runio.write_json(out_dir / "compare.json", payload)
    print(f"wrote {out_dir / 'compare.json'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.max_agents > MAX_AGENTS:
        raise ConfigError(
            f"max_agents: exact enumeration is capped at {MAX_AGENTS}, got {args.max_agents}"
        )
    if args.max_agents < 1:
        raise ConfigError(f"max_agents: must be >= 1, got {args.max_agents}")
    if args.instances < 1:
        raise ConfigError(f"instances: must be >= 1, got {args.instances}")

    rng = np.random.default_rng(args.seed)
    worst_law = 0.0
    worst_drift = 0.0
    for _ in range(args.instances):
        propensities, params, model = random_instance(rng, max_agents=args.max_agents)
        check = expected_drift_check(propensities, params, model)
        pmf = poisson_binomial_pmf(check.law.probs)
        # np.maximum keeps a NaN gap, which then fails the tolerance test
        worst_law = np.maximum(worst_law, np.max(np.abs(check.law.m_probs - pmf)))
        worst_drift = np.maximum(worst_drift, check.max_abs_gap)

    passed = worst_law <= args.tolerance and worst_drift <= args.tolerance
    print(f"oracle check: {args.instances} instances, up to {args.max_agents} agents, seed {args.seed}")
    print(f"  entrant-count law vs independent recurrence: worst gap {worst_law:.3e}")
    print(f"  one-round mean drift vs closed form:         worst gap {worst_drift:.3e}")
    print(f"  tolerance {args.tolerance:g}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


_PLOT_HEADER = """\
# generated by entrydyn make-plots; run from inside the run directory:
#   gnuplot plots.gp
set datafile separator ','
set key autotitle columnhead noenhanced
set grid
set term pngcairo size 960,640
set xlabel 'time'
"""


def _cmd_make_plots(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if not (run_dir / "series.csv").is_file():
        raise ConfigError(f"{run_dir / 'series.csv'}: no such series file")

    kappa = None
    run_json = run_dir / "run.json"
    if run_json.is_file():
        with _run_record(run_json) as record:
            kappa = _as_number(record["derived"]["kappa"], "derived.kappa")

    lines = [_PLOT_HEADER]
    lines.append("set output 'entry_fraction.png'")
    lines.append("set ylabel 'entry fraction'")
    plot = "plot 'series.csv' using 1:2 with lines lw 2 title 'a(t)'"
    if kappa is not None:
        plot += f", {kappa!r} with lines dt 2 lc 'gray40' title 'capacity fraction'"
    lines.append(plot)
    lines.append("")
    lines.append("set output 'sorting.png'")
    lines.append("set ylabel 'sorting coefficient'")
    lines.append("set logscale y")
    lines.append("plot 'series.csv' using 1:3 with lines lw 2 title 'b(t)'")
    lines.append("unset logscale y")
    for density in sorted(run_dir.glob("density_t*.csv")):
        stem = density.stem
        label = stem.removeprefix("density_t")
        lines.append("")
        lines.append(f"set output '{stem}.png'")
        lines.append("set xlabel 'propensity'")
        lines.append("set ylabel 'density'")
        lines.append(f"plot '{density.name}' using 1:2 with lines lw 2 title 'f(q) at t={label}'")

    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    script = out_dir / "plots.gp"
    script.write_text("\n".join(lines) + "\n")
    print(f"wrote {script}")
    return EXIT_OK


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override config out_dir")
    parser.add_argument("--t-end", type=float, default=None, help="override config t_end")
    parser.add_argument("--replicas", type=int, default=None, help="override config replicas")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrydyn",
        description="Market entry learning dynamics: agent-based and mean-field engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_abm = sub.add_parser("abm", help="run the agent-based engine from a config")
    _add_run_flags(p_abm)
    p_abm.set_defaults(handler=_cmd_abm)

    p_pde = sub.add_parser("pde", help="run the mean-field density engine from a config")
    _add_run_flags(p_pde)
    p_pde.set_defaults(handler=_cmd_pde)

    p_an = sub.add_parser("analyze", help="fit decay time scales from a finished run")
    p_an.add_argument("run_dir", help="directory holding series.csv and run.json")
    p_an.add_argument("--factor", type=_number_in(1.0), default=2.0, help="pass band around predicted rates")
    p_an.add_argument(
        "--epsilon", type=_number_in(0.0, 1.0, closed=False), default=0.05, help="learning-completion threshold"
    )
    p_an.add_argument(
        "--min-ratio", type=_number_in(0.0, closed=False), default=20.0, help="required fitted time-scale ratio"
    )
    p_an.add_argument("--out", default=None, help="directory for fits.json (default: run_dir)")
    p_an.set_defaults(handler=_cmd_analyze)

    p_cmp = sub.add_parser("compare", help="sup-norm/RMSE between two series files")
    p_cmp.add_argument("first", help="first series.csv")
    p_cmp.add_argument("second", help="second series.csv")
    p_cmp.add_argument("--column", choices=("a", "b"), default="a", help="column checked by --max-sup")
    p_cmp.add_argument(
        "--max-sup", type=_number_in(0.0), default=None, help="fail (exit 1) if sup-norm exceeds this"
    )
    p_cmp.add_argument("--out", default=None, help="directory for compare.json (default: .)")
    p_cmp.set_defaults(handler=_cmd_compare)

    p_or = sub.add_parser("oracle-check", help="exact small-population identities on random instances")
    p_or.add_argument("--instances", type=int, default=1000)
    p_or.add_argument("--max-agents", type=int, default=MAX_AGENTS)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--tolerance", type=_number_in(0.0), default=1e-12)
    p_or.set_defaults(handler=_cmd_oracle_check)

    p_plot = sub.add_parser("make-plots", help="emit a gnuplot script for a finished run")
    p_plot.add_argument("run_dir", help="directory holding series.csv")
    p_plot.add_argument("--out", default=None, help="directory for plots.gp (default: run_dir)")
    p_plot.set_defaults(handler=_cmd_make_plots)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its diagnostic; fold usage errors into
        # the config-error exit code
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FitError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
