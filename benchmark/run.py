"""entrydyn benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of pde_acceptance,
abm_ensemble, abm_large, oracle_sweep, or `all` for each in turn. For S
seconds it starts repetitions of the workload, each in a fresh
single-threaded interpreter (rep.py) that runs the workload's `entrydyn`
subcommands and checks their outputs. With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer metrics of
BENCHMARK.json; the last line of stdout is a JSON object with correct,
attempted, failed and metrics. Artifacts go to .bench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import configs

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
REP_TIMEOUT_S = 170
# a metric whose wrapped function was never called is reported as this
ABSENT = -1
# units whose values must repeat exactly across repetitions of one seed
EXACT_UNITS = ("count", "B")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ENTRYDYN_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_rep(workload: str, seed: int, trace: int, base: Path, env: dict) -> dict:
    workdir = base / "bench"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argv = [
        sys.executable, str(BENCH / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--configs", str(base / "configs"), "--t0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        argv + [repr(t0)], cwd=workdir, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
    )
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition exited with {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    report = json.loads(lines[-1])
    report.update(
        traced=bool(trace),
        elapsed=elapsed,
        setup_total_s=report["ready"] - t0,
        wall_s=report["done"] - report["ready"],
    )
    # set-up less the numpy and scipy import, which no program change moves
    report["setup_s"] = report["setup_total_s"] - report["deps_import_s"]
    report["setup_norm"] = report["setup_s"] / report["deps_import_s"]
    report["wall_norm"] = report["wall_s"] / report["deps_import_s"]
    return report


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = OUT / workload
    config_dir = base / "configs"
    shutil.rmtree(config_dir, ignore_errors=True)
    config_dir.mkdir(parents=True)
    for stem, document in configs.configs(workload, seed).items():
        (config_dir / f"{stem}.json").write_text(json.dumps(document, indent=2) + "\n")
    env = child_env()
    # untimed warm-up: bytecode and page cache, as a returning CLI user has them
    subprocess.run([sys.executable, "-c", "import entrydyn"], env=env, check=True, timeout=REP_TIMEOUT_S)

    reps: list[dict] = []
    min_reps = 2 if trace else 1
    start = time.monotonic()
    while True:
        # with --trace 1, untraced and traced repetitions alternate
        reps.append(run_rep(workload, seed, trace and len(reps) % 2, base, env))
        longest = max(rep["elapsed"] for rep in reps)
        if len(reps) >= min_reps and time.monotonic() - start + longest > seconds:
            break
    return {"reps": reps, "measured": time.monotonic() - start}


def summarize(workload: str, seed: int, trace: int, result: dict, spec: dict) -> dict:
    """Metrics, counts and the human-readable lines of one workload."""
    reps = result["reps"]
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    failed = sum(1 for rep in reps if rep["failures"])
    problems: list[str] = []
    lines = [
        f"{workload} seed {seed}: {len(reps)} repetitions in {result['measured']:.1f} s, "
        f"trace {'on' if trace else 'off'}"
    ]
    for rep in reps:
        for failure in rep["failures"]:
            lines.append(f"  FAILED check: {failure}")
    metrics: dict = {}
    if not trace:
        shown = {"wall_s": "s", "setup_total_s": "s", "deps_import_s": "s", **spec["end_to_end"]}
        for name, unit in shown.items():
            values = [rep[name] for rep in plain]
            if name in spec["end_to_end"]:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(
                f"  {name:<14} {statistics.median(values):10.4f} {unit:<5} median of {len(values)}: "
                + " ".join(f"{v:.4f}" for v in values)
            )
        lines.append(f"  {'error_rate':<14} {failed / len(reps):10.4f} 1     {failed} of {len(reps)} runs failed a check")
    else:
        for name, unit in spec["per_layer"].items():
            if name == "trace_overhead_frac":
                value = statistics.median([r["wall_norm"] for r in traced]) / statistics.median([r["wall_norm"] for r in plain]) - 1.0
            else:
                values = [rep["layers"][name] for rep in traced]
                if any(v is None for v in values):
                    value = None
                else:
                    if unit in EXACT_UNITS and len(set(values)) > 1:
                        problems.append(f"{name} does not repeat across runs of one seed: {values}")
                    value = statistics.median(values)
            metrics[name] = {"value": ABSENT if value is None else value, "unit": unit}
            shown = "absent" if value is None else f"{value:.6g}"
            lines.append(f"  {name:<34} {shown:>14} {unit}")
    digests = {rep["values"]["sha256_checked"] for rep in reps if "sha256_checked" in rep["values"]}
    if digests:
        lines.append(
            f"  series.csv sha256 {'compared with' if True in digests else 'not stored for this seed; not compared with'}"
            " the stored reference"
        )
    for problem in problems:
        lines.append(f"  FAILED: {problem}")
    versions = reps[0]["versions"]
    lines.append(
        f"  environment: python {versions['python']}, numpy {versions['numpy']}, "
        f"scipy {versions['scipy']}, nproc {os.cpu_count()}; ENTRYDYN_THREADS unset; "
        "OMP/OpenBLAS/MKL threads 1"
    )
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entrydyn end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=(*configs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entrydyn" / "__init__.py").is_file():
        print("benchmark: no src/entrydyn here; run from the root of an entrydyn checkout", file=sys.stderr)
        return 2
    spec_raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {key: {m["name"]: m["unit"] for m in spec_raw[key]} for key in ("end_to_end", "per_layer")}

    workloads = configs.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for workload in workloads:
            result = measure(workload, args.seed, args.seconds, args.trace)
            summaries.append((workload, summarize(workload, args.seed, args.trace, result, spec)))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3

    for _, summary in summaries:
        print("\n".join(summary.pop("lines")))
    if len(summaries) == 1:
        final = summaries[0][1]
    else:
        final = {
            "correct": all(s["correct"] for _, s in summaries),
            "attempted": sum(s["attempted"] for _, s in summaries),
            "failed": sum(s["failed"] for _, s in summaries),
            "metrics": {f"{w}.{k}": v for w, s in summaries for k, v in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
