"""Which entrydyn functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every wrapped name is a module-level attribute the program itself calls
through, so rebinding it sees the calls made inside solve(), simulate()
and expected_drift_check(). Names that entrydyn.cli imports are rebound
in cli too, since the benchmark runs the workloads through cli.main().
The private _Stencil (moments and flux apply) is not wrapped: its cost is
the part of kinetic.step_us the wrapped functions do not account for.
"""

from __future__ import annotations

import math

import numpy as np

from spans import SpanIndex, Tracer


def _label_solve(tracer: Tracer, index: int, args, result) -> None:
    tracer.labels[index] = args[1].rule.value


def _classify_dt(tracer: Tracer, index: int, args, dt: float) -> None:
    """Count which bound stable_dt returned: diffusive, the output cap, or else advective."""
    dq, v, mu, cfl_safety, cap = args[:5]
    mu_max = float(np.max(mu)) if np.size(mu) else 0.0
    if mu_max > 0 and math.isclose(dt, cfl_safety * dq * dq / (2.0 * mu_max), rel_tol=1e-9):
        kind = "diffusive"
    elif dt == cap:
        kind = "cap"
    else:
        kind = "advective"
    counts = tracer.counts
    counts[f"kinetic.bound_{kind}"] += 1
    counts["kinetic.dt_min"] = min(counts.get("kinetic.dt_min", math.inf), dt)
    counts["kinetic.dt_max"] = max(counts.get("kinetic.dt_max", -math.inf), dt)


def _count_patterns(tracer: Tracer, index: int, args, result) -> None:
    tracer.counts["oracle.patterns"] += 2 ** int(np.size(args[0]))


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item) for item in obj)
    fields = getattr(obj, "__dict__", None)
    if fields:
        return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))
    return 0


def _count_round_bytes(tracer: Tracer, index: int, args, result) -> None:
    # arrays handed into and back out of a round-level call: computed from
    # array sizes, not measured memory traffic
    if tracer.phases[index] == "run":
        tracer.counts["abm.bytes"] += _array_bytes(args) + _array_bytes(result)


def _count_written(tracer: Tracer, index: int, args, path) -> None:
    if tracer.phases[index] == "run":
        tracer.counts["runio.bytes_written"] += path.stat().st_size


def install(tracer: Tracer) -> None:
    from entrydyn import abm, analysis, cli, config, core, kinetic, oracle, runio

    tracer.wrap((config, cli), "load_config", "config.load_config")
    for method in ("initial_density", "abm_init"):
        tracer.wrap((config.RunConfig,), method, "grid.initial_state")
    tracer.wrap((kinetic, cli), "solve", "kinetic.solve", _label_solve)
    tracer.wrap((kinetic,), "stable_dt", "kinetic.stable_dt", _classify_dt)
    tracer.wrap((kinetic,), "diffusion_coefficient", "kinetic.diffusion_coefficient")
    tracer.wrap((abm, cli), "ensemble_run", "abm.ensemble_run")
    tracer.wrap((abm, cli), "simulate", "abm.simulate")
    tracer.wrap((abm, cli), "init_population", "abm.init_population")
    tracer.wrap((abm,), "play_round", "abm.play_round", _count_round_bytes)
    tracer.wrap((abm,), "empirical_moments", "abm.empirical_moments", _count_round_bytes)
    tracer.wrap((core.Logistic,), "prob", "core.prob")
    tracer.wrap((core.ErevRothRatio,), "prob", "core.prob")
    tracer.wrap((oracle, cli), "enumerate_round", "oracle.enumerate_round", _count_patterns)
    tracer.wrap((oracle, cli), "expected_drift_check", "oracle.expected_drift_check")
    tracer.wrap((oracle, cli), "poisson_binomial_pmf", "oracle.poisson_binomial_pmf")
    for name in ("write_series", "write_density", "write_json"):
        tracer.wrap((runio,), name, "runio.write", _count_written)
    for name in ("aggregate_learning_fit", "sorting_fit"):
        tracer.wrap((analysis, cli), name, "analysis.fit")


def _ratio(num, den, scale: float = 1.0):
    return None if num is None or not den else scale * num / den


def layer_metrics(tracer: Tracer, n_agents: int | None, checks: dict) -> dict:
    """Per-layer values of one traced repetition; None marks a metric as absent."""
    ix = SpanIndex(tracer)
    counts = tracer.counts
    # the initial state is what the CLI builds before it enters an engine:
    # the density or the agent population, not a replica's own population
    initial = ix.find("grid.initial_state", phase=None) + [
        i for i in ix.find("abm.init_population", phase=None) if tracer.parents[i] < 0
    ]
    out: dict = {
        "setup.import_s": tracer.regions.get("setup.import"),
        "config.load_s": ix.total("config.load_config", phase=None),
        "grid.initial_state_s": sum(ix.duration[i] for i in initial) if initial else None,
    }

    # kinetic: steps are counted as stable_dt calls, one per explicit step
    stable = ix.find("kinetic.stable_dt")
    steps: dict[str, int | None] = {}
    solve_s: dict[str, float | None] = {}
    for rule, key in (("basic_reinforcement", "basic"), ("fictitious_stochastic", "fict")):
        solves = [i for i in ix.find("kinetic.solve") if tracer.labels.get(i) == rule]
        solve_s[key] = sum(ix.duration[i] for i in solves) if solves else None
        n = sum(len(ix.children(i, "kinetic.stable_dt")) for i in solves)
        steps[key] = n if solves and stable else None
        out[f"kinetic.steps_{key}"] = steps[key]
        out[f"kinetic.solve_{key}_s"] = solve_s[key]
    total_steps = sum(n for n in steps.values() if n)
    total_solve = sum(s for s in solve_s.values() if s is not None)
    out["kinetic.step_us"] = _ratio(total_solve if total_steps else None, total_steps, 1e6)
    out["kinetic.stable_dt_calls"] = ix.count("kinetic.stable_dt")
    out["kinetic.stable_dt_us"] = ix.mean_us("kinetic.stable_dt")
    out["kinetic.diffusion_coefficient_us"] = ix.mean_us("kinetic.diffusion_coefficient")
    for kind in ("diffusive", "advective", "cap"):
        out[f"kinetic.bound_{kind}"] = int(counts[f"kinetic.bound_{kind}"]) if stable else None
    out["kinetic.dt_min"] = counts.get("kinetic.dt_min")
    out["kinetic.dt_max"] = counts.get("kinetic.dt_max")
    for name in ("mass_residual_max", "density_min", "a_gap_ref", "b_gap_ref"):
        out[f"kinetic.{name}"] = checks.get(f"kinetic.{name}")

    # abm
    rounds = ix.count("abm.play_round")
    durations = [ix.duration[i] for i in ix.find("abm.play_round")]
    simulate_s = ix.total("abm.simulate")
    ensembles = ix.find("abm.ensemble_run")
    overhead = None
    if ensembles and simulate_s is not None:
        inner = sum(ix.duration[j] for i in ensembles for j in ix.children(i, "abm.simulate"))
        overhead = sum(ix.duration[i] for i in ensembles) - inner
    out["abm.rounds"] = rounds
    out["abm.play_round_us"] = 1e6 * float(np.median(durations)) if durations else None
    out["abm.play_round_p99_us"] = 1e6 * float(np.percentile(durations, 99)) if durations else None
    moments = [ix.duration[i] for i in ix.find("abm.empirical_moments")]
    out["abm.empirical_moments_us"] = 1e6 * float(np.median(moments)) if moments else None
    out["abm.moments_calls"] = len(moments) or None
    out["abm.simulate_s"] = simulate_s
    out["abm.ensemble_overhead_s"] = overhead
    replica_inits = [i for i in ix.find("abm.init_population") if tracer.parents[i] >= 0]
    out["abm.init_population_s"] = sum(ix.duration[i] for i in replica_inits) if replica_inits else None
    out["abm.agent_rounds_per_s"] = _ratio(
        n_agents * rounds if rounds and n_agents else None, simulate_s
    )
    out["abm.computed_bytes_per_round"] = _ratio(counts["abm.bytes"] if rounds else None, rounds)

    # core
    prob_calls = ix.count("core.prob")
    out["core.prob_calls"] = prob_calls
    out["core.prob_calls_per_round"] = _ratio(prob_calls, rounds)
    out["core.prob_us"] = ix.mean_us("core.prob")

    # oracle: self times exclude nested enumeration and probability calls
    enumerate_calls = ix.count("oracle.enumerate_round")
    out["oracle.enumerate_calls"] = enumerate_calls
    out["oracle.patterns"] = int(counts["oracle.patterns"]) if enumerate_calls else None
    out["oracle.enumerate_round_us"] = ix.mean_us("oracle.enumerate_round", use_self=True)
    out["oracle.drift_check_us"] = ix.mean_us("oracle.expected_drift_check", use_self=True)
    out["oracle.pmf_us"] = ix.mean_us("oracle.poisson_binomial_pmf")
    out["oracle.worst_law_gap"] = checks.get("oracle.worst_law_gap")
    out["oracle.worst_drift_gap"] = checks.get("oracle.worst_drift_gap")

    # artifacts and the analyze step
    writes = ix.find("runio.write")
    out["runio.write_s"] = ix.total("runio.write")
    out["runio.bytes_written"] = int(counts["runio.bytes_written"]) if writes else None
    out["analysis.fit_s"] = ix.total("analysis.fit")
    return out

