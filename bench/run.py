"""Planner benchmark: plan time, set-up time, memory and plan quality per workload.

Usage (from the repository root):

    python3 bench/run.py --workload opp-mlp100 --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  Every planning run is its
own process in a fresh work directory under ``.bench_work/``, which is
removed afterwards.  With ``--trace 0`` the untraced runs give the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` one untraced run,
one traced run and a scaling probe give the per-layer metrics.  Every plan is
re-validated through ``--task validate``, scored against the workload's
oracle, and compared byte for byte with the other plans of the same seed.
The last stdout line is the JSON result; a failed check sets ``correct`` to
false and counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS  # noqa: E402

# a run starts no further planning run that could end after this many seconds
RUN_LIMIT_S = 165.0
QUALITY_SLACK = 1e-9
# planner seeds of one run lie this far apart, so that runs at nearby
# benchmark seeds share none
QUALITY_SEED_STRIDE = 1000


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def environment() -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
    }


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["TMPDIR"] = workdir
    return env


def run_child(mode: str, name: str, seed: int, timeout: float) -> dict:
    """One child process in a fresh work directory; {} when it crashed or timed out."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, name, str(seed), workdir],
            cwd=workdir,
            env=child_env(workdir),
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        print(f"# {mode} run of {name} seed {seed} timed out", file=sys.stderr)
        return {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"# {mode} run of {name} seed {seed} exited {proc.returncode}", file=sys.stderr)
        return {}
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def plan_ok(result: dict) -> bool:
    """Planned, passed ``--task validate``, and did not beat the oracle."""
    return (
        result.get("exit_code") == 0
        and result.get("validate_exit_code") == 0
        and 0.0 < result.get("plan_quality", 0.0) <= 1.0 + QUALITY_SLACK
    )


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Untraced runs: every quality seed once, the first seed twice, then more until time is up."""
    workload = WORKLOADS[name]
    seeds = [seed + QUALITY_SEED_STRIDE * i for i in range(workload.quality_seeds)]
    schedule = seeds + [seed]
    started = time.monotonic()
    runs: list[tuple[int, dict]] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        if len(runs) >= len(schedule) and elapsed >= seconds:
            break
        if runs and elapsed + longest > RUN_LIMIT_S:
            break
        s = schedule[len(runs)] if len(runs) < len(schedule) else seeds[len(runs) % len(seeds)]
        result = run_child("plan", name, s, RUN_LIMIT_S - elapsed)
        longest = max(longest, result.get("wall_s", 0.0))
        runs.append((s, result))

    failed = 0
    first_sha: dict[int, str] = {}
    quality: dict[int, float] = {}
    for s, result in runs:
        sha = result.get("plan_sha256")
        if not (plan_ok(result) and first_sha.setdefault(s, sha) == sha):
            failed += 1
        if "plan_quality" in result:
            quality.setdefault(s, result["plan_quality"])
    planned = [r for _, r in runs if r.get("exit_code") == 0 and "setup_s" in r]
    if not planned or len(quality) < len(seeds):
        raise RuntimeError(f"{name}: too few successful runs to report metrics")
    metrics = {
        "plan_s": statistics.median(r["plan_s"] for r in planned),
        "setup_s": statistics.median(r["setup_s"] for r in planned),
        "plan_quality": statistics.median(quality.values()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in planned),
    }
    print(f"# {name}: planner seeds {[s for s, _ in runs]}, {len(planned)} planned")
    print(f"# {name}: plan_s samples {[round(r['plan_s'], 4) for r in planned]}")
    print(f"# {name}: setup_s samples {[round(r['setup_s'], 4) for r in planned]}")
    return metrics, len(runs), failed


def per_layer(name: str, seed: int) -> tuple[dict, int, int]:
    """One untraced run, one traced run at the same seed, and the scaling probe."""
    started = time.monotonic()
    untraced = run_child("plan", name, seed, RUN_LIMIT_S)
    traced = run_child("traced", name, seed, RUN_LIMIT_S - (time.monotonic() - started))
    scale = run_child("probe", name, seed, RUN_LIMIT_S - (time.monotonic() - started))
    if "layers" not in traced or "probe" not in scale or "plan_s" not in untraced:
        raise RuntimeError(f"{name}: the traced run or the probe produced no metrics")
    if traced["missing"]:
        print(f"# {name}: not wrapped, reported as zero: {traced['missing']}")
    same_plan = untraced.get("plan_sha256") == traced.get("plan_sha256") and untraced.get(
        "episodes_to_best"
    ) == traced.get("episodes_to_best")
    failed = (not plan_ok(untraced)) + (not (plan_ok(traced) and same_plan))
    attempted = 2
    metrics = dict(traced["layers"])
    metrics.update(scale["probe"])
    metrics.update(
        {
            "agent.final_epsilon": traced["final_epsilon"],
            "cli.episodes": traced["episodes"],
            "episodes_to_best": traced["episodes_to_best"],
            "trace.overhead_s": traced["plan_s"] - untraced["plan_s"],
            "fail_rate": failed / attempted,
        }
    )
    return metrics, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    if trace:
        metrics, attempted, failed = per_layer(name, seed)
    else:
        metrics, attempted, failed = end_to_end(name, seed, seconds)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")
    for key in sorted(metrics):
        print(f"{name:18s} {key:32s} {metrics[key]:>14.6g} {declared[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "autoplan", "cli.py")):
        print(f"no planner sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print("# environment " + json.dumps(environment(), sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(json.dumps(results if args.workload == "all" else results[names[0]], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
