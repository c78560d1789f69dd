"""Benchmark workloads: inputs, CLI arguments and plan-quality oracles.

Each workload loads a different layer of the planner (see WORKLOADS.md).
Inputs are deterministic; the benchmark seed reaches the planner only as
its ``--seed`` flag.  Oracle values come from ``oracles.json``, written by
``derive_oracles.py``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ORACLES_PATH = os.path.join(BENCH_DIR, "oracles.json")

PLAN_FILE = "plan.json"
CURVE_FILE = "plan_curve.csv"


def mlp_graph_dict(layers: int, width: int = 8, batch: int = 4) -> dict:
    """Graph JSON of an L-layer ``dot`` + ``tanh`` MLP with one weight per layer.

    3L + 2 instructions (input, per layer weight/dot/tanh, root tuple) and
    2L candidate dims.  Each weight is its own tensor, so at most L dims can
    be partitioned; alternating output/input dims reaches that bound.
    """
    instructions: list[dict] = []

    def add(name: str, opcode: str, shape: tuple[int, ...], operands=(), cost=None) -> int:
        entry = {
            "id": len(instructions),
            "name": name,
            "opcode": opcode,
            "operands": list(operands),
            "shape": list(shape),
            "element_size": 4,
            "is_forward": True,
        }
        if cost is not None:
            entry["compute_cost_ms"] = cost
        instructions.append(entry)
        return entry["id"]

    h = add("x", "parameter", (batch, width))
    weights = []
    for i in range(layers):
        w = add(f"w{i:03d}", "parameter", (width, width))
        weights.append(f"w{i:03d}")
        d = add(f"dot{i:03d}", "dot", (batch, width), (h, w), 1.0)
        h = add(f"tanh{i:03d}", "tanh", (batch, width), (d,), 0.1)
    add("root", "tuple", (), (h,))
    return {"instructions": instructions, "trainable_variables": weights}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _write_mlp100(workdir: str) -> None:
    _write_json(os.path.join(workdir, "mlp100.json"), mlp_graph_dict(100))


def _write_chain128(workdir: str) -> None:
    from autoplan.zoo import uniform_chain

    uniform_chain(128).save(os.path.join(workdir, "chain128.json"))


def _no_inputs(workdir: str) -> None:
    pass


def load_oracles() -> dict:
    with open(ORACLES_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def curve_rows(workdir: str) -> list[dict]:
    with open(os.path.join(workdir, CURVE_FILE), "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _opp_quality(plan: dict, oracle: dict) -> float:
    return plan["partition_count"] / oracle["partition_count"]


def _pipe_quality(plan: dict, oracle: dict) -> float:
    return oracle["pipeline_length_s"] / plan["pipeline_length_s"]


def _opp_episodes_to_best(plan: dict, rows: list[dict]) -> int:
    return plan["found_at_episode"] + 1


def _pipe_episodes_to_best(plan: dict, rows: list[dict]) -> int:
    # first row with the highest score; the score of a feasible plan is 1/L
    scores = [float(r["score"]) for r in rows]
    return int(rows[scores.index(max(scores))]["episode"]) + 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Every untraced run plans ``quality_seeds`` planner seeds, starting at
    the benchmark seed; plan quality is their median, because a single
    seed's plan is a random draw (see WORKLOADS.md).
    """

    name: str
    write_inputs: Callable[[str], None]
    args: tuple[str, ...]
    quality: Callable[[dict, dict], float]
    episodes_to_best: Callable[[dict, list[dict]], int]
    quality_seeds: int

    def argv(self, seed: int) -> list[str]:
        return list(self.args) + ["--seed", str(seed), "--out", PLAN_FILE]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="opp-mlp100",
            write_inputs=_write_mlp100,
            args=("--task", "opp", "--graph", "mlp100.json", "--episodes", "8"),
            quality=_opp_quality,
            episodes_to_best=_opp_episodes_to_best,
            quality_seeds=2,
        ),
        Workload(
            name="pptrain-chain128",
            write_inputs=_write_chain128,
            args=(
                "--task", "pp-train", "--graph", "chain128.json", "--stages", "4",
                "--topology", "configc", "--episodes", "100",
            ),
            quality=_pipe_quality,
            episodes_to_best=_pipe_episodes_to_best,
            quality_seeds=5,
        ),
        Workload(
            name="ppinfer-bert48",
            write_inputs=_no_inputs,
            args=(
                "--task", "pp-infer", "--graph", "bert48_profile", "--stages", "4",
                "--topology", "configc", "--episodes", "50",
            ),
            quality=_pipe_quality,
            episodes_to_best=_pipe_episodes_to_best,
            quality_seeds=5,
        ),
    )
}
