"""Derive the exact plan-quality oracle of every workload.

Usage (from the repository root):

    PYTHONPATH=src python3 bench/derive_oracles.py          # derive and compare
    PYTHONPATH=src python3 bench/derive_oracles.py --write  # rewrite oracles.json

* opp-mlp100: every weight is its own tensor and a tensor holds at most one
  partitioned dim, so 100 weights bound the partition count; the
  alternating plan (output dim of even layers, input dim of odd layers)
  propagates conflict-free and reaches it.
* pptrain-chain128: every triple of ``PipeTrainEnv.candidates``, costed
  exactly as the environment's terminal step does (about half a minute).
* ppinfer-bert48: every boundary and cut combination of the bands from
  ``infer_search_bands``, decoded exactly as the environment does.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from workloads import ORACLES_PATH, load_oracles, mlp_graph_dict

from autoplan.dataproc import build_environment_arrays
from autoplan.envs import PipeInferEnv, PipeTrainEnv, infer_search_bands
from autoplan.ir import decision_dims, graph_from_dict
from autoplan.pipecost import PipelinePlan, pipeline_length, proportional_device_cuts, stage_metrics
from autoplan.sharding import DimStatus, Outcome, propagate
from autoplan.topology import load_topology
from autoplan.zoo import bert48_profile, uniform_chain

STAGES = 4
TOPOLOGY = "configc"
RADIUS = 3  # the CLI's default --radius


def opp_mlp100() -> dict:
    graph = graph_from_dict(mlp_graph_dict(100))
    dims = decision_dims(graph, graph.trainable_variables)
    chosen = {}
    for layer, name in enumerate(sorted(graph.trainable_variables)):
        chosen[graph.by_name(name).id] = 1 if layer % 2 == 0 else 0
    seeds = {
        d: DimStatus.PARTITIONED if chosen[d.instruction_id] == d.dim else DimStatus.REPLICATED
        for d in dims
    }
    result = propagate(graph, seeds, dims)
    if result.outcome is not Outcome.COMPLETE:
        raise RuntimeError("the alternating MLP plan does not propagate conflict-free")
    return {"partition_count": len(graph.trainable_variables)}


def pptrain_chain128() -> dict:
    graph = uniform_chain(128)
    topo = load_topology(TOPOLOGY)
    env = PipeTrainEnv(graph, topo, num_stages=STAGES, radius=RADIUS)
    best = (math.inf, None, None)
    for pivots in itertools.combinations(env.candidates, STAGES - 1):
        metrics = stage_metrics(graph, pivots, env.backward_multiplier)
        cuts = proportional_device_cuts(metrics, topo)
        plan = PipelinePlan(pivots, cuts, env.micro_batches, env.micro_batch_size)
        length = pipeline_length(plan, metrics, topo)
        if length < best[0]:
            best = (length, pivots, cuts)
    length, pivots, cuts = best
    return {
        "pipeline_length_s": length,
        "pivots": [graph.instruction(p).name for p in pivots],
        "device_cuts": list(cuts),
        "candidates": len(env.candidates),
    }


def ppinfer_bert48() -> dict:
    arrays = build_environment_arrays(bert48_profile())
    topo = load_topology(TOPOLOGY)
    bands, cut_bands = infer_search_bands(arrays, topo, STAGES, RADIUS)
    env = PipeInferEnv(arrays, topo, num_stages=STAGES, allowed_boundaries=bands, allowed_cuts=cut_bands)

    def increasing(sets):
        return [c for c in itertools.product(*map(sorted, sets)) if list(c) == sorted(set(c))]

    best = (math.inf, None, None)
    for boundaries in increasing(bands):
        metrics = env.decode_metrics(boundaries)
        for cuts in increasing(cut_bands):
            plan = PipelinePlan(boundaries, cuts, env.micro_batches, env.micro_batch_size)
            length = pipeline_length(plan, metrics, env.topo_norm)
            if length < best[0]:
                best = (length, boundaries, cuts)
    length, boundaries, cuts = best
    return {"pipeline_length_s": length, "boundaries": list(boundaries), "device_cuts": list(cuts)}


DERIVATIONS = {
    "opp-mlp100": opp_mlp100,
    "pptrain-chain128": pptrain_chain128,
    "ppinfer-bert48": ppinfer_bert48,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="derive the workload oracles")
    parser.add_argument("--write", action="store_true", help="rewrite oracles.json")
    args = parser.parse_args(argv)
    derived = {name: derive() for name, derive in DERIVATIONS.items()}
    print(json.dumps(derived, indent=2, sort_keys=True))
    if args.write:
        with open(ORACLES_PATH, "w", encoding="utf-8") as fh:
            json.dump(derived, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    if derived != load_oracles():
        print("derived oracles differ from oracles.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
