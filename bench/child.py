"""One planning run of one workload, in its own process and work directory.

Usage: python3 bench/child.py <mode> <workload> <seed> <workdir>

``plan`` runs ``autoplan.cli.main`` untraced, ``traced`` runs it with the
wrappers of ``tracing.py`` installed, and ``probe`` times linkage extraction
and one propagation on MLPs of 25, 50 and 100 layers.  The planning modes
then re-validate the plan with ``--task validate`` and score it against the
workload's oracle.  The last stdout line is a JSON object for ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

import workloads
from tracing import EpisodeOutcomes, Tracer, install

SCALE_LAYERS = (25, 50, 100)
PROPAGATE_REPEATS = 5


def _setup_clock() -> dict:
    """Stamp the first return of the agent constructor: set-up ends there."""
    from autoplan.agent import DqnAgent

    marks: dict = {}
    init = DqnAgent.__init__

    def timed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        marks.setdefault("agent_ready", time.perf_counter())

    DqnAgent.__init__ = timed_init
    return marks


def plan(mode: str, name: str, seed: int, workdir: str) -> dict:
    from autoplan import cli

    workload = workloads.WORKLOADS[name]
    oracle = workloads.load_oracles()[name]
    os.chdir(workdir)
    workload.write_inputs(workdir)
    tracer = outcomes = None
    missing: list[str] = []
    if mode == "traced":
        tracer, outcomes = Tracer(), EpisodeOutcomes()
        missing = install(tracer, outcomes)
    marks = _setup_clock()
    start = time.perf_counter()
    code = cli.main(workload.argv(seed))
    plan_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    result = {"exit_code": code, "plan_s": plan_s, "peak_rss_mb": peak_rss_mb, "missing": missing}
    if "agent_ready" in marks:
        result["setup_s"] = marks["agent_ready"] - start
    if code != 0:
        return result
    with open(workloads.PLAN_FILE, "rb") as fh:
        blob = fh.read()
    payload = json.loads(blob)
    rows = workloads.curve_rows(workdir)
    result.update(
        plan_sha256=hashlib.sha256(blob).hexdigest(),
        validate_exit_code=cli.main(["--task", "validate", "--plan", workloads.PLAN_FILE]),
        plan_quality=workload.quality(payload, oracle),
        episodes_to_best=workload.episodes_to_best(payload, rows),
        final_epsilon=float(rows[-1]["epsilon"]),
        episodes=len(rows),
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, outcomes, plan_s)
    return result


def layer_metrics(tracer: Tracer, outcomes: EpisodeOutcomes, plan_s: float) -> dict:
    spans, counts = tracer.spans, tracer.counts
    ms = 1000.0
    out = {
        "ir.load_graph.ms": spans["ir.load_graph"].total * ms,
        "linkage.extract.ms": spans["linkage.extract"].total * ms,
        "linkage.triggers": counts["linkage.triggers"],
        "sharding.propagate.calls": spans["sharding.propagate"].calls,
        "sharding.propagate.ms_p50": spans["sharding.propagate"].p50 * ms,
        "sharding.propagate.self_ms": spans["sharding.propagate"].self_time * ms,
        "sharding.engine_builds": counts["sharding.engine_builds"],
        "envs.reset.ms_p50": spans["envs.reset"].p50 * ms,
        "envs.step.calls": spans["envs.step"].calls,
        "envs.step.ms_p50": spans["envs.step"].p50 * ms,
        "envs.step.self_ms": spans["envs.step"].self_time * ms,
        "envs.complete_ratio": (outcomes.done - outcomes.conflicts) / max(1, spans["envs.reset"].calls),
        "pipecost.stage_metrics.calls": spans["pipecost.stage_metrics"].calls,
        "pipecost.stage_metrics.ms_p50": spans["pipecost.stage_metrics"].p50 * ms,
        "pipecost.stage_metrics.self_ms": spans["pipecost.stage_metrics"].self_time * ms,
        "pipecost.pipeline_length.calls": spans["pipecost.pipeline_length"].calls,
        "topology.allreduce.calls": counts["topology.allreduce"],
        "topology.transfer.calls": counts["topology.transfer"],
        "agent.act.ms_p50": spans["agent.act"].p50 * ms,
        "agent.learn.calls": spans["agent.learn"].calls,
        "agent.learn.ms_p50": spans["agent.learn"].p50 * ms,
        "agent.learn.self_ms": spans["agent.learn"].self_time * ms,
        "agent.forward.calls": counts["agent.forward"],
        "agent.adam.ms_p50": spans["agent.adam"].p50 * ms,
        "agent.replay_sample.ms_p50": spans["agent.replay_sample"].p50 * ms,
        "agent.replay_push.ms_p50": spans["agent.replay_push"].p50 * ms,
        "dataproc.build_arrays.ms": spans["dataproc.build_arrays"].total * ms,
        "cli.curve_write.self_ms": spans["cli.curve_write"].self_time * ms,
        "cli.validate.ms": spans["cli.validate"].total * ms,
    }
    self_s = {name: s.self_time for name, s in spans.items()}
    out["share.linkage_sharding"] = (self_s["linkage.extract"] + self_s["sharding.propagate"]) / plan_s
    out["share.envs_pipecost"] = (
        self_s["envs.reset"] + self_s["envs.step"]
        + self_s["pipecost.stage_metrics"] + self_s["pipecost.pipeline_length"]
    ) / plan_s
    out["share.agent_learn"] = spans["agent.learn"].total / plan_s
    return out


def probe() -> dict:
    """Linkage and single-seed propagation time against MLP depth."""
    from autoplan.ir import decision_dims, graph_from_dict
    from autoplan.linkage import extract_linkage_groups
    from autoplan.sharding import DimStatus, propagate

    out = {}
    for layers in SCALE_LAYERS:
        graph = graph_from_dict(workloads.mlp_graph_dict(layers))
        dims = decision_dims(graph, graph.trainable_variables)
        start = time.perf_counter()
        extract_linkage_groups(graph, dims)
        out[f"scale.linkage.ms.L{layers}"] = (time.perf_counter() - start) * 1000.0
        times = []
        for _ in range(PROPAGATE_REPEATS):
            start = time.perf_counter()
            propagate(graph, {dims[0]: DimStatus.PARTITIONED}, dims)
            times.append(time.perf_counter() - start)
        out[f"scale.propagate.ms.L{layers}"] = statistics.median(times) * 1000.0
    return {"exit_code": 0, "probe": out}


def main(argv: list[str]) -> int:
    mode, name, seed, workdir = argv
    result = probe() if mode == "probe" else plan(mode, name, int(seed), workdir)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
