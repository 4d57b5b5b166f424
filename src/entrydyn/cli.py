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
from .abm import ensemble_run, simulate
from .analysis import (
    FitError,
    aggregate_learning_fit,
    compare_series,
    sorting_fit,
    within_factor,
)
from .config import ConfigError, RunConfig, load_config, read_number, read_section
from .core import DomainError, GameParams, aggregate_learning_rate, learning_constant
from .core import predicted_time_scales, sorting_rate
from .kinetic import solve
from .observables import ObservableSeries
from .oracle import MAX_AGENTS, blocks, enumerate_block, poisson_binomial_rows, random_instance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# oracle-check draws this many instances before it enumerates them in
# blocks, so its memory does not grow with --instances
ORACLE_CHUNK = 512


def _number_in(low: float, high: float = math.inf, *, closed: bool = True, kind: type = float):
    """argparse type: a float, or an int if kind is int, in [low, high), or (low, high)
    unless closed; NaN is in neither.

    argparse names the flag of a bad value, and main exits 2 before the subcommand runs.
    """
    interval = f"{'[' if closed else '('}{low:g}, {high:g})"
    what = "an integer" if kind is int else "a number"

    def number(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (low <= value < high if closed else low < value < high):
            raise argparse.ArgumentTypeError(f"expected {what} in {interval}, got {text!r}")
        return value

    return number


def _abm_run(cfg: RunConfig) -> tuple[float, ObservableSeries, list, dict]:
    """c_p, the series and the snapshots of an agent run; it adds no run.json fields."""
    # the start population serves c_p only; the engine draws it again from the same seed
    c_p = learning_constant(
        cfg.init.population(cfg.game, np.random.default_rng(cfg.seed)), cfg.model, cfg.game.rule
    )
    if cfg.replicas > 1:
        series = ensemble_run(
            cfg.game,
            cfg.model,
            cfg.init,
            cfg.t_end,
            n_replicas=cfg.replicas,
            base_seed=cfg.seed,
            record_stride=cfg.record_stride,
        )
        return c_p, series, [], {}
    result = simulate(
        cfg.game,
        cfg.model,
        cfg.init,
        cfg.t_end,
        cfg.seed,
        record_stride=cfg.record_stride,
        snapshot_times=cfg.snapshot_times,
        snapshot_grid=cfg.grid,
    )
    return c_p, result.series, result.snapshots, {}


def _pde_run(cfg: RunConfig) -> tuple[float, ObservableSeries, list, dict]:
    """c_p, the series and the snapshots of a density run, and its step statistics."""
    try:
        f0 = cfg.init.density(cfg.grid)
    except ValueError as exc:
        # a start that parsed may still not fit the grid
        raise ConfigError(f"init: {exc}") from None
    c_p = learning_constant(f0.centers(), cfg.model, cfg.game.rule, f0.values * f0.dq)
    result = solve(f0, cfg.game, cfg.model, cfg.t_end, cfg.solver, cfg.snapshot_times)
    stats = {
        "mass_residual": result.max_mass_residual,
        "n_steps": result.n_steps,
        "dt_min": result.dt_min,
        "dt_max": result.dt_max,
    }
    return c_p, result.series, result.snapshots, stats


def _cmd_run(args: argparse.Namespace) -> int:
    """The abm and pde subcommands: one engine's run of a config, written to its out dir."""
    engine = args.command
    overrides = {"seed": args.seed, "t_end": args.t_end, "replicas": args.replicas, "out_dir": args.out}
    cfg = load_config(args.config, overrides)
    if cfg.engine not in (engine, "both"):
        raise ConfigError(f"engine: config selects {cfg.engine!r}; this subcommand runs {engine}")
    if engine == "abm" and cfg.snapshot_times and cfg.replicas > 1:
        raise ConfigError("snapshot_times: supported only for single-replica abm runs")
    out = Path(cfg.out_dir)
    if cfg.engine == "both":
        out = out / engine
    run = _abm_run if engine == "abm" else _pde_run
    c_p, series, snapshots, stats = run(cfg)

    out.mkdir(parents=True, exist_ok=True)
    runio.write_series(out / "series.csv", series)
    snapshot_names: dict[str, str] = {}
    for t, density in snapshots:
        name = runio.density_filename(t)
        runio.write_density(out / name, density)
        snapshot_names[f"{t:.10g}"] = name
    p = cfg.game
    scales = predicted_time_scales(p)
    payload = {
        "command": engine,
        "config": cfg.resolved(),
        "derived": {
            "kappa": p.kappa,
            "r": p.r,
            "tau": p.tau,
            "tau_al": scales.aggregate_learning,
            "tau_s": scales.sorting,
        },
        "learning_constant": c_p,
        "predicted_rates": {
            "aggregate_learning": aggregate_learning_rate(p, c_p),
            "sorting": sorting_rate(p),
        },
        "seed": cfg.seed,
        "n_records": len(series),
        "snapshots": snapshot_names,
        **stats,
    }
    runio.write_json(out / "run.json", payload)
    print(f"wrote {out / 'series.csv'} ({len(series)} records)")
    return EXIT_OK


@contextmanager
def _run_record(path: Path):
    """The payload of a run.json; a file that is not JSON, or a missing or
    mistyped field read from it, is a ConfigError."""
    try:
        yield runio.read_json(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a usable run record ({exc})") from None


def _load_run_dir(run_dir: Path) -> tuple[GameParams, float]:
    """The game and the learning constant c_p of a finished run."""
    with _run_record(run_dir / "run.json") as record:
        params = read_section(GameParams, record["config"]["game"], "game")
        c_p = read_number(record["learning_constant"], "learning_constant")
    return params, c_p


def _cmd_analyze(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    params, c_p = _load_run_dir(run_dir)
    series = runio.read_series(run_dir / "series.csv")

    fits: dict = {"factor": args.factor, "epsilon": args.epsilon, "pass": None}
    errors = []
    # each fit beside core's prediction of its rate; no other code pairs them
    measurements = (
        (
            "aggregate_learning",
            aggregate_learning_rate(params, c_p),
            lambda: aggregate_learning_fit(series, params),
        ),
        ("sorting", sorting_rate(params), lambda: sorting_fit(series, params, epsilon=args.epsilon)),
    )
    for name, predicted, measure in measurements:
        try:
            # a prediction of no decay leaves nothing to compare the fit with
            if not predicted > 0:
                raise FitError(f"predicted rate {predicted:g} is not positive")
            fit = measure()
        except FitError as exc:
            fits[name] = {"error": str(exc), "predicted_rate": predicted}
            errors.append(f"{name.replace('_', '-')} fit: {exc}")
            continue
        fits[name] = {
            **runio.as_json(fit),
            "tau": fit.tau,
            "predicted_rate": predicted,
            "ratio": fit.rate / predicted,
            "pass": within_factor(fit.rate, predicted, args.factor),
        }

    if not errors:
        ratio = fits["sorting"]["tau"] / fits["aggregate_learning"]["tau"]
        fits["time_scale_separation"] = {
            "fitted_ratio": ratio,
            "predicted_ratio": predicted_time_scales(params).separation,
            "minimum": args.min_ratio,
            "pass": ratio >= args.min_ratio,
        }
        fits["pass"] = all(
            fits[name]["pass"] for name in ("aggregate_learning", "sorting", "time_scale_separation")
        )

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
    fields = {column: compare_series(first, second, column=column) for column in ("a", "b")}
    payload: dict = {"first": str(args.first), "second": str(args.second), "fields": fields}

    passed = True
    if args.max_sup is not None:
        value = fields[args.column].sup_norm
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
    rng = np.random.default_rng(args.seed)
    worst_law = 0.0
    worst_drift = 0.0
    n_blocks = n_patterns = 0
    for start in range(0, args.instances, ORACLE_CHUNK):
        chunk = random_instance(rng, args.max_agents, min(ORACLE_CHUNK, args.instances - start))
        # the chunk's laws padded with p = 0, which leaves each row's
        # recurrence exact, so one recurrence checks the whole chunk
        probs = np.zeros((len(chunk), args.max_agents))
        m_probs = np.zeros((len(chunk), args.max_agents + 1))
        for rows in blocks(chunk):
            law = enumerate_block(chunk.take(rows))
            n = law.probs.shape[1]
            probs[rows, :n] = law.probs
            m_probs[rows, : n + 1] = law.m_probs
            # np.maximum keeps a NaN gap, which then fails the tolerance test
            worst_drift = np.maximum(worst_drift, law.max_abs_gap)
            n_blocks, n_patterns = n_blocks + 1, n_patterns + (rows.size << n)
        pmf = poisson_binomial_rows(probs)
        worst_law = np.maximum(worst_law, np.max(np.abs(m_probs - pmf)))

    passed = worst_law <= args.tolerance and worst_drift <= args.tolerance
    print(f"oracle check: {args.instances} instances, up to {args.max_agents} agents, seed {args.seed}")
    print(f"  entrant-count law vs independent recurrence: worst gap {worst_law:.3e}")
    print(f"  one-round mean drift vs closed form:         worst gap {worst_drift:.3e}")
    print(f"  enumerated {args.instances} instances in {n_blocks} blocks, {n_patterns} patterns")
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
            kappa = read_number(record["derived"]["kappa"], "derived.kappa")

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
    p_abm.set_defaults(handler=_cmd_run)

    p_pde = sub.add_parser("pde", help="run the mean-field density engine from a config")
    _add_run_flags(p_pde)
    p_pde.set_defaults(handler=_cmd_run)

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
    p_or.add_argument("--instances", type=_number_in(1, kind=int), default=1000)
    # exact enumeration is capped at MAX_AGENTS
    p_or.add_argument("--max-agents", type=_number_in(1, MAX_AGENTS + 1, kind=int), default=MAX_AGENTS)
    p_or.add_argument("--seed", type=_number_in(0, kind=int), default=0)
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
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"runtime error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
