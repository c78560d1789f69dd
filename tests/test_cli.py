"""The command line: search runs, their artifacts, and plan validation."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from itertools import accumulate
from pathlib import Path

import pytest

from autoplan import cli
from autoplan.agent import EPSILON_FINAL, AgentConfig, DqnAgent, epsilon_at
from autoplan.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main, validate_payload, write_json
from autoplan.dataproc import CoarsenedArrays, build_environment_arrays
from autoplan.envs import PipeInferEnv, infer_search_bands
from autoplan.pipecost import PipelinePlan, length_breakdown, pipeline_length
from autoplan.sharding import PropagationEngine
from autoplan.topology import load_topology
from autoplan.zoo import bert48_profile, t5_block, uniform_chain, zoo_graph

from helpers import linkage_chain_graph

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import mlp_graph_dict  # noqa: E402


def _validate(tmp_path, payload):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(payload))
    return main(["--task", "validate", "--plan", str(plan)])


@pytest.mark.parametrize(
    "strategy, partitions, status",
    [
        # linked partition of the output dim; x stays replicated
        ({"w": 1, "bias": 0, "scale": 0}, 3, EXIT_OK),
        # contracting-dim partition of w needs x split on its columns
        ({"w": 0, "bias": -1, "scale": -1}, 1, EXIT_INFEASIBLE),
    ],
)
def test_opp_plan_on_graph_file(tmp_path, strategy, partitions, status):
    graph_path = str(tmp_path / "chain.json")
    linkage_chain_graph().save(graph_path)
    payload = {"task": "opp", "graph": graph_path, "strategy": strategy, "partition_count": partitions}
    assert _validate(tmp_path, payload) == status


@pytest.mark.parametrize(
    "strategy, partitions, status",
    [
        ({"arg0.1": 0, "arg1.2": 0, "arg2.3": -1, "arg3.4": -1}, 2, EXIT_OK),
        # feature-dim partition of the data batch would split the weight w1
        ({"arg0.1": 1, "arg1.2": -1, "arg2.3": -1, "arg3.4": -1}, 1, EXIT_INFEASIBLE),
        # values outside -1..rank-1, or not plain ints, name no dim
        ({"arg0.1": 7, "arg1.2": -1, "arg2.3": -1, "arg3.4": -1}, 1, EXIT_INFEASIBLE),
        ({"arg0.1": -5, "arg1.2": -1, "arg2.3": -1, "arg3.4": -1}, 0, EXIT_INFEASIBLE),
        ({"arg0.1": "x", "arg1.2": -1, "arg2.3": -1, "arg3.4": -1}, 0, EXIT_INFEASIBLE),
        ({"arg0.1": False, "arg1.2": False, "arg2.3": -1, "arg3.4": -1}, 2, EXIT_INFEASIBLE),
        ({"arg0.1": 0.0, "arg1.2": 0, "arg2.3": -1, "arg3.4": -1}, 2, EXIT_INFEASIBLE),
        # the partition count is a plain int too
        ({"arg0.1": 0, "arg1.2": 0, "arg2.3": -1, "arg3.4": -1}, 2.0, EXIT_INFEASIBLE),
        ({"arg0.1": -1, "arg1.2": -1, "arg2.3": -1, "arg3.4": -1}, False, EXIT_INFEASIBLE),
    ],
)
def test_adp_plan_on_bundled_graph(tmp_path, strategy, partitions, status):
    payload = {"task": "adp", "graph": "vgg_classifier", "strategy": strategy, "partition_count": partitions}
    assert _validate(tmp_path, payload) == status



INFER_PLAN = {
    "task": "pp-infer", "graph": "bert48_profile", "topology": "configc",
    "boundaries": [34, 66, 98], "device_cuts": [8, 16, 24],
    "micro_batches": 1, "micro_batch_size": 16, "pipeline_length_s": 0.8745000000000145,
}
TRAIN_PLAN = {
    "task": "pp-train", "graph": "uniform_chain", "topology": "configc",
    "pivots": ["op017", "op034", "op050"], "device_cuts": [8, 16, 24],
    "micro_batches": 4, "micro_batch_size": 16, "pipeline_length_s": 0.04425024576,
    "memory_feasible": True,
}
DROP = object()
# a 160-device topology file, which admits more stages than the 128-point grid separates
WIDE = object()


@pytest.mark.parametrize(
    "base, change, status",
    [
        (INFER_PLAN, {}, EXIT_OK),
        # an empty stage, and all compute in stage 0, each with the length
        # the prefix decode gives them
        (INFER_PLAN, {"boundaries": [34, 34, 98], "pipeline_length_s": 1.311999999999988}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"boundaries": [0, 66, 98], "pipeline_length_s": 12.098833333333392}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"boundaries": [34, 66, 200]}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"boundaries": [98, 66, 34]}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"boundaries": DROP}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"boundaries": 34}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"boundaries": [34.0, 66, 98]}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"device_cuts": DROP}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"device_cuts": 8}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {}, EXIT_OK),
        (TRAIN_PLAN, {"pivots": DROP}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"pivots": 17}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"pivots": [17, 34, 50]}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"device_cuts": DROP}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"device_cuts": "8,16,24"}, EXIT_INFEASIBLE),
        # a training plan has no memory budget when it records none (train-valid
        # records no mem_per_device field); its busiest device holds 256 bytes
        (TRAIN_PLAN, {"mem_per_device": None}, EXIT_OK),
        (TRAIN_PLAN, {"mem_per_device": 256}, EXIT_OK),
        (TRAIN_PLAN, {"mem_per_device": 255.5}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"memory_feasible": False}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"memory_feasible": DROP}, EXIT_INFEASIBLE),
        # micro-batch counts and sizes are positive ints
        (INFER_PLAN, {"micro_batches": "4"}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"micro_batches": True}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"micro_batch_size": 0}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"micro_batches": "4"}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"micro_batches": 0}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"micro_batch_size": 16.0}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"micro_batch_size": -16}, EXIT_INFEASIBLE),
        # an absent size is the task's default: 4 micro-batches for training, 1 for inference
        (TRAIN_PLAN, {"micro_batches": DROP, "micro_batch_size": DROP}, EXIT_OK),
        (INFER_PLAN, {"micro_batches": DROP, "micro_batch_size": DROP}, EXIT_OK),
        # an inference pipeline has 2..32 stages on configc
        (INFER_PLAN, {"boundaries": [], "device_cuts": []}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"boundaries": list(range(1, 34)), "device_cuts": list(range(1, 34))}, EXIT_INFEASIBLE),
        # the grid has 127 boundaries, however many devices there are
        (
            INFER_PLAN,
            {"topology": WIDE, "boundaries": list(range(1, 130)), "device_cuts": list(range(1, 130))},
            EXIT_INFEASIBLE,
        ),
        # --stages 1 refuses to plan, so a one-stage training plan is not valid
        (TRAIN_PLAN, {"pivots": [], "device_cuts": [], "pipeline_length_s": 0.024}, EXIT_INFEASIBLE),
        # a length NaN or infinite matches nothing, and a missing one is no length
        (INFER_PLAN, {"pipeline_length_s": float("nan")}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"pipeline_length_s": float("inf")}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"pipeline_length_s": DROP}, EXIT_INFEASIBLE),
    ],
    ids=[
        "infer-valid", "infer-empty-stage", "infer-boundary-0", "infer-boundary-200",
        "infer-decreasing", "infer-no-boundaries", "infer-boundaries-int", "infer-boundary-float",
        "infer-no-device-cuts", "infer-device-cuts-int", "train-valid", "train-no-pivots",
        "train-pivots-int", "train-pivot-ids", "train-no-device-cuts", "train-device-cuts-str",
        "train-budget-null", "train-budget-exact", "train-budget-too-small",
        "train-memory-infeasible", "train-no-memory-feasible",
        "infer-micro-batches-str", "infer-micro-batches-bool", "infer-micro-batch-size-0",
        "train-micro-batches-str", "train-micro-batches-0", "train-micro-batch-size-float",
        "train-micro-batch-size-negative", "train-default-sizes", "infer-default-sizes",
        "infer-no-cuts", "infer-34-stages", "infer-130-stages", "train-one-stage", "infer-length-nan",
        "infer-length-inf", "infer-no-length",
    ],
)
def test_pipeline_plan_on_bundled_inputs(tmp_path, base, change, status):
    payload = {**base, **change}
    payload = {key: value for key, value in payload.items() if value is not DROP}
    if payload["topology"] is WIDE:
        wide = tmp_path / "wide.json"
        wide.write_text('{"servers": 20, "gpus_per_server": 8}')
        payload["topology"] = str(wide)
    assert _validate(tmp_path, payload) == status


def test_plan_that_is_not_an_object_is_config_error(tmp_path):
    assert _validate(tmp_path, [1]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "args, text, key",
    [
        (
            ["--task", "opp", "--graph"],
            '{"instructions": [], "trainable_variables": [], "instructions": []}',
            "instructions",
        ),
        (
            ["--task", "pp-train", "--graph", "uniform_chain", "--stages", "4", "--topology"],
            '{"servers": 4, "gpus_per_server": 8, "servers": 1}',
            "servers",
        ),
        (["--task", "pp-infer", "--graph"], '{"C": [1, 2], "C": [5, 6], "A": [1, 1], "W": [1, 1]}', "C"),
        (["--task", "validate", "--plan"], json.dumps(TRAIN_PLAN)[:-1] + ', "pivots": ["op017"]}', "pivots"),
    ],
    ids=["graph", "topology", "profile", "plan"],
)
def test_input_with_a_repeated_key_is_config_error(tmp_path, caplog, args, text, key):
    # each reader used to keep the later of the two keys
    path = tmp_path / "input.json"
    path.write_text(text)
    out = tmp_path / "plan.json"
    searched = [] if "validate" in args else ["--episodes", "3", "--out", str(out)]
    assert main([*args, str(path), *searched]) == EXIT_CONFIG
    assert f"repeated key '{key}'" in caplog.text
    assert not out.exists()


GENERATED_PLAN_INPUTS = {
    "task": "pp-infer", "graph": None, "topology": "configc", "distribution": "uniform", "seed": 0,
}


# a graph of 0 would name file descriptor 0, standard input
@pytest.mark.parametrize(
    "field, value",
    [
        ("task", ["opp"]), ("graph", ["x"]), ("graph", 0), ("topology", 7),
        ("distribution", "gamma"), ("seed", "x"), ("seed", 1.5), ("seed", -1),
        ("mem_per_device", 0), ("mem_per_device", "1000"), ("mem_per_device", True),
    ],
)
def test_plan_input_field_is_checked_as_its_flag_is(tmp_path, monkeypatch, caplog, field, value):
    loads = _counted(monkeypatch, cli, "resolve_inputs")
    assert _validate(tmp_path, {**GENERATED_PLAN_INPUTS, field: value}) == EXIT_CONFIG
    assert f"plan field {field!r} is {value!r}" in caplog.text
    assert loads == []


@pytest.mark.parametrize("recorded", [float("nan"), INFER_PLAN["pipeline_length_s"]])
def test_length_recomputed_as_nan_is_invalid(recorded):
    # a null profile cell, were it let through, makes the compute prefix NaN from there on
    arrays = build_environment_arrays(bert48_profile())
    c = arrays.c.copy()
    c[40:] = math.nan
    payload = {**INFER_PLAN, "pipeline_length_s": recorded}
    ok, _ = validate_payload(payload, topo=load_topology("configc"), arrays=CoarsenedArrays(c, arrays.a, arrays.w))
    assert not ok


def test_artifacts_refuse_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(str(tmp_path / "plan.json"), {"pipeline_length_s": math.nan})


SEARCH_ARGS = {
    "opp": ["--task", "opp", "--graph", "t5_block", "--episodes", "4"],
    "adp": ["--task", "adp", "--graph", "vgg_classifier", "--episodes", "4"],
    "pp-train": [
        "--task", "pp-train", "--graph", "uniform_chain", "--episodes", "4",
        "--stages", "4", "--topology", "configc",
    ],
    "pp-infer": [
        "--task", "pp-infer", "--graph", "bert48_profile", "--episodes", "3",
        "--stages", "4", "--topology", "configc",
    ],
}


def _search(workdir, task, *extra, seed=0):
    """Run one search task; returns its exit code and the plan path."""
    workdir.mkdir(exist_ok=True)
    out = workdir / "plan.json"
    code = main(SEARCH_ARGS[task] + ["--seed", str(seed), "--out", str(out), *extra])
    return code, out


def _curve(workdir):
    with open(workdir / "plan_curve.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("task", sorted(SEARCH_ARGS))
def test_search_is_deterministic_and_validates(tmp_path, task):
    first, second = tmp_path / "a", tmp_path / "b"
    code, plan = _search(first, task)
    assert code == EXIT_OK
    assert main(["--task", "validate", "--plan", str(plan)]) == EXIT_OK
    assert _search(second, task)[0] == EXIT_OK
    for name in ("plan.json", "plan_curve.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("task", sorted(SEARCH_ARGS))
def test_summary_agrees_with_curve(tmp_path, task):
    code, plan = _search(tmp_path, task)
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "plan_summary.json").read_text())
    rows = _curve(tmp_path)
    assert f"{summary['final_epsilon']:.6g}" == rows[-1]["epsilon"]
    assert summary["time_to_best_s"] >= 0.0
    if task in ("opp", "adp"):
        assert summary["found_at_episode"] == json.loads(plan.read_text())["found_at_episode"]
    else:
        # every plan is memory-feasible here, so the best plan has the top score 1/L
        scores = [float(r["score"]) for r in rows]
        assert summary["found_at_episode"] == int(rows[scores.index(max(scores))]["episode"])


@pytest.mark.parametrize(
    "args, learn_steps",
    [
        # about two steps an episode never fill a batch of 64: pure random search
        (["--task", "adp", "--graph", "vgg_classifier", "--episodes", "30", "--seed", "3"], 0),
        # 50 episodes of 3 free boundary picks, then 3 forced (pinned) cuts:
        # free pick f is transition 6 * ((f - 1) // 3) + (f - 1) % 3 + 1, so
        # the first with 64 transitions in is f = 34 (transition 67), and
        # every 4th free pick from there, 36..148, trains
        (
            ["--task", "pp-infer", "--graph", "bert48_profile", "--episodes", "50",
             "--stages", "4", "--topology", "configc"],
            len(range(36, 150 + 1, 4)),
        ),
    ],
    ids=["adp-short", "pp-infer"],
)
def test_summary_counts_learn_steps(tmp_path, args, learn_steps):
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_OK
    assert json.loads((tmp_path / "plan_summary.json").read_text())["learn_steps"] == learn_steps


def test_pp_infer_with_every_pick_forced_never_learns(tmp_path):
    args = SEARCH_ARGS["pp-infer"] + ["--episodes", "50", "--radius", "0"]
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_OK
    assert json.loads((tmp_path / "plan_summary.json").read_text())["learn_steps"] == 0
    # each band holds only its centre, so every episode decodes the centre plan
    arrays, topo = build_environment_arrays(bert48_profile()), load_topology("configc")
    bands, cut_bands = infer_search_bands(arrays, topo, 4, 0)
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert [{b} for b in plan["boundaries"]] == bands
    assert [{c} for c in plan["device_cuts"]] == cut_bands
    assert plan["pipeline_length_s"] == pytest.approx(10.29675)
    assert {row["loss"] for row in _curve(tmp_path)} == {""}


def test_epsilon_decays_per_decision_on_fixed_length_episodes(tmp_path):
    args = SEARCH_ARGS["pp-infer"] + ["--episodes", "50", "--epsilon-decay", "150"]
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_OK
    config = AgentConfig(**json.loads((tmp_path / "plan_summary.json").read_text())["defaults"])
    # one update per decision from the 64th on, as if every decision trained
    expected = [f"{epsilon_at(max(0, 6 * (ep + 1) - 63), config):.6g}" for ep in range(50)]
    assert [row["epsilon"] for row in _curve(tmp_path)] == expected
    assert expected[-1] == f"{EPSILON_FINAL:.6g}"


def test_opp_learns_every_fourth_decision(tmp_path):
    graph, trace = tmp_path / "mlp10.json", tmp_path / "trace.jsonl"
    graph.write_text(json.dumps(mlp_graph_dict(10)))
    args = ["--task", "opp", "--graph", str(graph), "--episodes", "20", "--epsilon-decay", "100"]
    assert main(args + ["--log", str(trace), "--out", str(tmp_path / "plan.json")]) == EXIT_OK
    summary = json.loads((tmp_path / "plan_summary.json").read_text())
    lengths = [len(json.loads(line)["steps"]) for line in trace.read_text().splitlines()]
    assert len(set(lengths)) > 1
    observed = sum(lengths)
    assert observed >= 64
    assert summary["learn_steps"] == len(range(64, observed + 1, 4))
    config = AgentConfig(**summary["defaults"])
    expected = [f"{epsilon_at(max(0, n - 63), config):.6g}" for n in accumulate(lengths)]
    assert [row["epsilon"] for row in _curve(tmp_path)] == expected


def test_partition_runs_derive_linkage_afresh(tmp_path):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    graph = graphs / "t5.json"
    t5_block().save(str(graph))
    plans = []
    for run in ("a", "b"):
        out = tmp_path / run / "plan.json"
        out.parent.mkdir()
        assert main(["--task", "opp", "--graph", str(graph), "--episodes", "4", "--out", str(out)]) == EXIT_OK
        summary = json.loads((tmp_path / run / "plan_summary.json").read_text())
        # 18 candidate dims give 36 linkage triggers, the 4 episodes take 12
        # steps and self-validation propagates once, in every run
        assert summary["propagations"] == 36 + 12 + 1
        plans.append(out.read_bytes())
    assert plans[0] == plans[1]
    assert [p.name for p in graphs.iterdir()] == ["t5.json"]


def _counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` for the rest of the test."""
    calls = []
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_opp_run_searches_on_the_engine_linkage_was_extracted_on(tmp_path, monkeypatch):
    builds = _counted(monkeypatch, PropagationEngine, "__init__")
    learns = _counted(monkeypatch, DqnAgent, "learn")
    graph = tmp_path / "mlp100.json"
    graph.write_text(json.dumps(mlp_graph_dict(100)))
    args = ["--task", "opp", "--graph", str(graph), "--episodes", "8", "--seed", "0"]
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_OK
    summary = json.loads((tmp_path / "plan_summary.json").read_text())
    # the search's engine, shared by linkage extraction and the env, and
    # self-validation's own
    assert len(builds) == 2
    # 400 linkage triggers, the episodes' steps and self-validation's run
    assert summary["propagations"] == 925
    # learn is called only once the buffer holds a batch, so every call updates
    assert len(learns) == summary["learn_steps"] == 116


def test_pp_infer_builds_one_mask_per_decision(tmp_path, monkeypatch):
    masks = _counted(monkeypatch, PipeInferEnv, "_build_mask")
    learns = _counted(monkeypatch, DqnAgent, "learn")
    args = SEARCH_ARGS["pp-infer"] + ["--episodes", "50", "--seed", "0"]
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_OK
    # one per reset and one per step: 50 episodes of 6 decisions
    assert len(masks) == 50 + 50 * 6
    assert len(learns) == json.loads((tmp_path / "plan_summary.json").read_text())["learn_steps"] == 29


@pytest.mark.parametrize("task", ["adp", "pp-train"])
def test_search_writes_nothing_beside_its_graph_file(tmp_path, task):
    # opp is checked, with its linkage, above
    args = list(SEARCH_ARGS[task])
    at = args.index("--graph") + 1
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    graph = graphs / "g.json"
    zoo_graph(args[at]).save(str(graph))
    args[at] = str(graph)
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_OK
    assert [p.name for p in graphs.iterdir()] == ["g.json"]


@pytest.mark.parametrize("task", ["opp", "adp"])
def test_partition_summary_counts_conflicts(tmp_path, task):
    log = tmp_path / "episodes.jsonl"
    args = ["--task", task, "--graph", "vgg_classifier", "--episodes", "50", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "plan.json"), "--log", str(log)]) == EXIT_OK
    summary = json.loads((tmp_path / "plan_summary.json").read_text())
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert summary["conflicts"] == sum("conflict_site" in r for r in records)
    # opp offers the w1 dims that the base state already replicates; partitioning one conflicts
    assert (summary["conflicts"] > 0) == (task == "opp")


def test_opp_finetune(tmp_path):
    code, plan = _search(tmp_path, "opp", "--finetune")
    assert code == EXIT_OK
    assert main(["--task", "validate", "--plan", str(plan)]) == EXIT_OK
    # the backtrace stage continues the episode numbering of the first stage
    assert len(_curve(tmp_path)) > 4


T5_FINETUNED = {
    "b1": 0, "b2": -1, "ln1_bias": -1, "ln1_scale": -1, "ln2_bias": -1, "ln2_scale": -1,
    "w1": 1, "w2": 0, "wk": 1, "wo": 0, "wq": 1, "wv": 1,
}
ATTENTION_FINETUNED = {"ln1_bias": -1, "ln1_scale": -1, "wk": 1, "wo": 0, "wq": 1, "wv": 1}


@pytest.mark.parametrize(
    "graph, seed, found_at, reward, partitions, strategy, curve_rows",
    [
        # the backtrace stage undoes replications and finds the best plan
        ("t5_block", 0, 10, 0.8, 7, T5_FINETUNED, 20),
        ("attention_block", 15, 10, 0.8, 4, ATTENTION_FINETUNED, 20),
        # partitioning w1 conflicts, so the backtrace stage has nothing to undo
        ("vgg_classifier", 0, 1, 0.2, 0, {"w1": -1}, 10),
    ],
)
def test_opp_finetune_plans_are_unchanged(
    tmp_path, graph, seed, found_at, reward, partitions, strategy, curve_rows
):
    out = tmp_path / "plan.json"
    args = ["--task", "opp", "--graph", graph, "--episodes", "10", "--seed", str(seed), "--finetune"]
    assert main(args + ["--out", str(out)]) == EXIT_OK
    plan = json.loads(out.read_text())
    assert (plan["found_at_episode"], plan["episode_reward"]) == (found_at, reward)
    assert (plan["partition_count"], plan["strategy"]) == (partitions, strategy)
    assert len(_curve(tmp_path)) == curve_rows


@pytest.mark.parametrize("task", sorted(SEARCH_ARGS))
def test_unknown_graph_is_config_error(tmp_path, task):
    args = SEARCH_ARGS[task]
    args = args[: args.index("--graph") + 1] + ["nosuch"] + args[args.index("--graph") + 2 :]
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_CONFIG


def _chain_text(field, text):
    """``uniform_chain(16)`` as JSON, with ``field`` of its fourth op spelled ``text``."""
    data = uniform_chain(16).to_dict()
    data["instructions"][3][field] = "@"
    return json.dumps(data).replace('"@"', text)


BAD_GRAPHS = {
    "non-object-instruction.json": '{"instructions": [5]}',
    # json reads 1e400 as infinity, which int() refuses
    "overflowing-element-size.json": _chain_text("element_size", "1e400"),
    # an int the cost model cannot turn into a float
    "huge-element-size.json": _chain_text("element_size", "1" + "0" * 400),
    "nan-cost.json": _chain_text("compute_cost_ms", '"nan"'),
    "inf-cost.json": _chain_text("compute_cost_ms", '"inf"'),
    # the env clamps a negative pipeline length that validation recomputes
    "negative-cost.json": _chain_text("compute_cost_ms", "-50"),
    # int() would read these as 3, 2, 8 and 4, and bool() "false" as true
    "fractional-id.json": _chain_text("id", "3.5"),
    "fractional-operand.json": _chain_text("operands", "[2.5]"),
    "fractional-extent.json": _chain_text("shape", "[8.5, 8]"),
    "fractional-element-size.json": _chain_text("element_size", "4.9"),
    "text-is-forward.json": _chain_text("is_forward", '"false"'),
    # iterating a string shape would read it as (8, 8)
    "text-shape.json": _chain_text("shape", '"88"'),
    # float() would read true as 1.0, and str() 5 as "5"
    "boolean-cost.json": _chain_text("compute_cost_ms", "true"),
    "numeric-name.json": _chain_text("name", "5"),
}


@pytest.mark.parametrize("name", sorted(BAD_GRAPHS))
def test_unpriceable_graph_is_config_error(tmp_path, name):
    graph = tmp_path / name
    graph.write_text(BAD_GRAPHS[name])
    out = tmp_path / "plan.json"
    args = ["--task", "pp-train", "--graph", str(graph), "--stages", "4", "--topology", "configc"]
    assert main(args + ["--episodes", "4", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


BAD_PROFILES = {
    # json.load reads null as None, which numpy turns into NaN
    "null-cell.json": '{"C": [0.1, null], "A": [1, 1], "W": [1, 1]}',
    "array.json": "[[0.1, 0.2], [1, 1], [1, 1]]",
    "scalar-columns.json": '{"C": 0.1, "A": 1, "W": 1}',
    "names-not-a-list.json": '{"names": 5, "C": [0.1], "A": [1], "W": [1]}',
    "text-cell.csv": "C,A,W\n0.1,1,1\nfast,1,1\n",
    "no-w.csv": "C,A\n0.1,1\n0.2,1\n",
    # csv.DictReader fills a short row's missing fields with None
    "short-row.csv": "name,C,A,W\na,1,2\n",
    "long-row.csv": "name,C,A,W\na,1,2,3,4\n",
    # numpy reads these as the numbers 1.0 and 2.0, and true as 1.0
    "text-number-cell.json": '{"C": ["1", "2"], "A": [1, 1], "W": [1, 1]}',
    "boolean-cell.json": '{"C": [1, 2], "A": [1, true], "W": [1, 1]}',
    "text-w-cell.json": '{"C": [1, 2], "A": [1, 1], "W": [1, "1e3"]}',
    # tuple() splits a string into its characters, and takes any items
    "names-a-string.json": '{"names": "ab", "C": [1, 2], "A": [1, 1], "W": [1, 1]}',
    "numeric-names.json": '{"names": [1, 2], "C": [1, 2], "A": [1, 1], "W": [1, 1]}',
}


@pytest.mark.parametrize("name", sorted(BAD_PROFILES))
def test_unusable_profile_is_config_error(tmp_path, name):
    profile = tmp_path / name
    profile.write_text(BAD_PROFILES[name])
    out = tmp_path / "plan.json"
    args = ["--task", "pp-infer", "--graph", str(profile), "--episodes", "3", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert not out.exists()


def _write_bert48(path):
    profile = bert48_profile()
    columns = (profile.names, profile.c, profile.a, profile.w)
    if path.suffix == ".json":
        names, c, a, w = (list(column) for column in columns)
        path.write_text(json.dumps({"names": names, "C": c, "A": a, "W": w}))
    else:
        rows = (",".join([name, *(repr(float(x)) for x in xs)]) for name, *xs in zip(*columns))
        path.write_text("\n".join(["name,compute_ms,activation_bytes,param_bytes", *rows]) + "\n")


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_profile_file_plans_as_the_bundled_profile(tmp_path, suffix):
    profile = tmp_path / f"bert48{suffix}"
    _write_bert48(profile)
    bundled, loaded = tmp_path / "bundled", tmp_path / "loaded"
    assert _search(bundled, "pp-infer", "--episodes", "10")[0] == EXIT_OK
    assert _search(loaded, "pp-infer", "--episodes", "10", "--graph", str(profile))[0] == EXIT_OK
    plan = (loaded / "plan.json").read_text().replace(json.dumps(str(profile)), '"bert48_profile"')
    assert plan == (bundled / "plan.json").read_text()
    assert (loaded / "plan_curve.csv").read_bytes() == (bundled / "plan_curve.csv").read_bytes()


@pytest.mark.parametrize(
    "config, code",
    [
        ('{"servers": 4, "gpus_per_server": 8, "intra_bw": 130e9, "inter_bw": 3.125e9}', EXIT_OK),
        ('{"servers": 4, "gpus_per_server": 8, "intra_bw_GBps": 130, "inter_bw_Gbps": 25}', EXIT_OK),
        # int() would truncate the count to 4 servers
        ('{"servers": 4.9, "gpus_per_server": 8}', EXIT_CONFIG),
        ('{"servers": true, "gpus_per_server": 8}', EXIT_CONFIG),
        ('{"servers": "4", "gpus_per_server": 8}', EXIT_CONFIG),
        # json reads 1e999 as infinity
        ('{"servers": 4, "gpus_per_server": 8, "inter_bw": 1e999}', EXIT_CONFIG),
        # float() would read the text as 1.3e11 and true as 1 byte per second
        ('{"servers": 4, "gpus_per_server": 8, "intra_bw": "130e9"}', EXIT_CONFIG),
        ('{"servers": 4, "gpus_per_server": 8, "inter_bw": true}', EXIT_CONFIG),
        ('{"servers": 4, "gpus_per_server": 8, "intra_bw_GBps": true}', EXIT_CONFIG),
        ('{"servers": 4, "gpus_per_server": 8, "inter_bw_Gbps": "25"}', EXIT_CONFIG),
    ],
    ids=[
        "bytes-per-second", "conventional-units", "fractional-servers", "boolean-servers",
        "text-servers", "infinite-bandwidth", "text-intra-bw", "boolean-inter-bw",
        "boolean-intra-bw-GBps", "text-inter-bw-Gbps",
    ],
)
def test_topology_file_plans_as_its_preset(tmp_path, config, code):
    topology = tmp_path / "configc.json"
    topology.write_text(config)
    preset, loaded = tmp_path / "preset", tmp_path / "loaded"
    assert _search(loaded, "pp-train", "--topology", str(topology))[0] == code
    if code != EXIT_OK:
        assert list(loaded.iterdir()) == []
        return
    assert _search(preset, "pp-train")[0] == EXIT_OK
    plan = (loaded / "plan.json").read_text().replace(json.dumps(str(topology)), '"configc"')
    assert plan == (preset / "plan.json").read_text()
    assert (loaded / "plan_curve.csv").read_bytes() == (preset / "plan_curve.csv").read_bytes()


@pytest.mark.parametrize(
    "out, log",
    [
        ("missing/plan.json", "log.jsonl"), ("plan.json", "missing/log.jsonl"), ("", "log.jsonl"),
        ("plan.json", "plan.json"), ("plan.json", "plan_curve.csv"), ("plan", "plan_summary.json"),
    ],
    ids=[
        "out-in-missing-directory", "log-in-missing-directory", "out-is-a-directory",
        "log-is-the-plan", "log-is-the-curve", "log-is-the-summary",
    ],
)
def test_output_path_that_cannot_be_written_is_config_error(tmp_path, out, log):
    args = SEARCH_ARGS["pp-infer"] + ["--episodes", "2"]
    assert main(args + ["--out", str(tmp_path / out), "--log", str(tmp_path / log)]) == EXIT_CONFIG
    # refused before the search, so nothing was written
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "graph, topology, out, log, flag",
    [
        ("g.json", "t.json", "g.json", None, "--graph"),
        ("g_summary.json", "t.json", "g.json", None, "--graph"),
        ("g.json", "t.json", "plan.json", "g.json", "--graph"),
        ("g.json", "t.json", "t.json", None, "--topology"),
        ("g.json", "t_curve.csv", "t.json", None, "--topology"),
        ("g.json", "t.json", "plan.json", "t.json", "--topology"),
    ],
    ids=["plan-graph", "summary-graph", "log-graph", "plan-topology", "curve-topology", "log-topology"],
)
def test_output_path_that_is_an_input_is_config_error(
    tmp_path, monkeypatch, caplog, graph, topology, out, log, flag
):
    # a plan written over its graph file once made the next run on that file exit 2
    monkeypatch.chdir(tmp_path)
    zoo_graph("uniform_chain").save(graph)
    Path(topology).write_text(json.dumps({"servers": 4, "gpus_per_server": 8}))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    loads = _counted(monkeypatch, cli, "resolve_inputs")
    args = [
        "--task", "pp-train", "--graph", graph, "--topology", topology, "--stages", "2",
        "--episodes", "2", "--out", out, *(["--log", log] if log else []),
    ]
    assert main(args) == EXIT_CONFIG
    named = graph if flag == "--graph" else topology
    assert f"{flag} {named!r} names the plan, its curve, its summary or --log" in caplog.text
    assert loads == [] and {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("dist", ["normal", "binomial"])
def test_generated_environment_plans_validate_and_repeat(tmp_path, dist):
    args = ["--task", "pp-infer", "--dist", dist, "--episodes", "5", "--stages", "4", "--topology", "configc"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for workdir in runs:
        workdir.mkdir()
        assert main(args + ["--seed", "3", "--out", str(workdir / "plan.json")]) == EXIT_OK
    plan = runs[0] / "plan.json"
    assert json.loads(plan.read_text())["distribution"] == dist
    assert main(["--task", "validate", "--plan", str(plan)]) == EXIT_OK
    for name in ("plan.json", "plan_curve.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_no_planning_run_imports_numpy_random(tmp_path):
    # a fresh interpreter, so that no earlier test has loaded the module
    graph = tmp_path / "mlp10.json"
    graph.write_text(json.dumps(mlp_graph_dict(10)))
    searches = [["--task", "opp", "--graph", str(graph), "--episodes", "4"]]
    searches += [SEARCH_ARGS[task] for task in ("adp", "pp-train", "pp-infer")]
    plans = [str(tmp_path / f"plan{i}.json") for i in range(len(searches))]
    runs = [args + ["--out", plan] for args, plan in zip(searches, plans)]
    runs += [["--task", "validate", "--plan", plan] for plan in plans]
    # generating a profile is the one use of numpy's generator
    generate = ["--task", "pp-infer", "--dist", "normal", "--episodes", "3", "--stages", "4"]
    generate += ["--topology", "configc", "--out", str(tmp_path / "generated.json")]
    script = (
        "import json, sys\n"
        "from autoplan.cli import main\n"
        "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
        "planned = 'numpy.random' in sys.modules\n"
        "codes.append(main(json.loads(sys.argv[2])))\n"
        "print(json.dumps([codes, planned, 'numpy.random' in sys.modules]))\n"
    )
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), json.dumps(generate)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True, text=True, timeout=300, check=True,
    )
    codes, planned, generated = json.loads(done.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * (len(runs) + 1)
    assert (planned, generated) == (False, True)


def test_gen_data_task_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--task", "gen-data", "--out", str(tmp_path / "envs.jsonl")])
    assert exc.value.code == EXIT_CONFIG


def _exit_code(argv):
    """``main``'s exit code, also when argparse refuses a flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("task", ["pp-train", "pp-infer"])
@pytest.mark.parametrize("stages, topology", [("1", "configc"), ("99", "configc"), ("20", "configa")])
def test_stage_count_outside_two_to_devices_is_config_error(tmp_path, caplog, task, stages, topology):
    args = SEARCH_ARGS[task] + ["--stages", stages, "--topology", topology]
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_CONFIG
    assert f"--stages {stages} is not in 2.." in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_pp_infer_refuses_more_stages_than_its_grid_has_boundaries(tmp_path, caplog):
    # 160 devices would allow 129 stages; 127 boundaries on the 128-point grid allow 128
    topology = tmp_path / "wide.json"
    topology.write_text('{"servers": 20, "gpus_per_server": 8}')
    out = tmp_path / "out"
    out.mkdir()
    args = SEARCH_ARGS["pp-infer"] + ["--topology", str(topology), "--out", str(out / "plan.json")]
    assert main(args + ["--stages", "129"]) == EXIT_CONFIG
    assert "--stages 129 needs 128 stage boundaries, more than the 127 of the 128-point grid" in caplog.text
    assert list(out.iterdir()) == []
    assert main(args + ["--stages", "128", "--episodes", "1"]) == EXIT_OK


def test_opp_without_trainable_variables_is_config_error(tmp_path):
    args = ["--task", "opp", "--graph", "uniform_chain", "--out", str(tmp_path / "plan.json")]
    assert main(args) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


# --gamma is gone, so its out-of-range values are refused too, as an unknown flag
BAD_NUMBERS = [
    ("opp", "--episodes", "0"), ("opp", "--episodes", "-3"), ("pp-train", "--micro-batches", "0"),
    ("adp", "--gamma", "nan"), ("adp", "--gamma", "5"), ("adp", "--lr", "-1"),
    ("pp-train", "--mem-per-device", "nan"), ("adp", "--epsilon-decay", "-5"),
    ("pp-train", "--radius", "-1"), ("pp-infer", "--radius", "-1"),
]


@pytest.mark.parametrize("task, flag, value", BAD_NUMBERS)
def test_bad_numeric_flag_is_config_error_before_any_work(tmp_path, monkeypatch, task, flag, value):
    loads = _counted(monkeypatch, cli, "resolve_inputs")
    args = SEARCH_ARGS[task] + [flag, value, "--out", str(tmp_path / "plan.json")]
    assert _exit_code(args) == EXIT_CONFIG
    assert loads == [] and list(tmp_path.iterdir()) == []


# settings every task shared, now constants of autoplan.agent and autoplan.pipecost,
# each given the value it always had
REMOVED_FLAGS = [
    ("adp", "--gamma", "0.6"), ("pp-infer", "--batch-size", "64"),
    ("opp", "--buffer", "2000"), ("pp-train", "--micro-batch-size", "16"),
]


@pytest.mark.parametrize("task, flag, value", REMOVED_FLAGS)
def test_removed_flag_is_refused_before_any_work(tmp_path, monkeypatch, capsys, task, flag, value):
    loads = _counted(monkeypatch, cli, "resolve_inputs")
    args = SEARCH_ARGS[task] + [flag, value, "--out", str(tmp_path / "plan.json")]
    assert _exit_code(args) == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert loads == [] and list(tmp_path.iterdir()) == []


def test_every_agent_setting_is_set_apart_by_the_tasks():
    # a setting every search task gives one value is an autoplan.agent constant, not a field
    searches = [cli.FLAG_DEFAULTS[name] for name in cli.SEARCH_TASKS]
    for field in fields(AgentConfig):
        assert len({defaults[field.name] for defaults in searches}) >= 2, field.name


DROPPED_FLAGS = {
    "pp-train-finetune": (SEARCH_ARGS["pp-train"], ["--finetune"]),
    "pp-infer-finetune": (SEARCH_ARGS["pp-infer"], ["--finetune"]),
    "pp-infer-mem-per-device": (SEARCH_ARGS["pp-infer"], ["--mem-per-device", "1"]),
    "adp-stages": (SEARCH_ARGS["adp"], ["--stages", "4"]),
    "adp-radius": (SEARCH_ARGS["adp"], ["--radius", "9"]),
    "adp-topology": (SEARCH_ARGS["adp"], ["--topology", "configc"]),
    "adp-micro-batches": (SEARCH_ARGS["adp"], ["--micro-batches", "3"]),
    "adp-dist": (SEARCH_ARGS["adp"], ["--dist", "normal"]),
    "pp-train-dist": (SEARCH_ARGS["pp-train"], ["--dist", "binomial"]),
    "validate-episodes": (["--task", "validate", "--plan", "plan.json"], ["--episodes", "3"]),
    # pp-infer reads --dist only to generate a profile in place of --graph's
    "pp-infer-graph-dist": (SEARCH_ARGS["pp-infer"], ["--dist", "binomial"]),
}


@pytest.mark.parametrize("argv, flag", DROPPED_FLAGS.values(), ids=DROPPED_FLAGS)
def test_flag_the_task_would_drop_is_refused_before_any_input_is_loaded(
    tmp_path, monkeypatch, caplog, argv, flag
):
    loads = _counted(monkeypatch, cli, "resolve_inputs")
    monkeypatch.chdir(tmp_path)
    assert main(argv + flag) == EXIT_CONFIG
    assert flag[0] in caplog.text
    assert loads == [] and list(tmp_path.iterdir()) == []


def _flag_values(parser):
    """(dest, option, argv tail) for every flag but --task: a value each flag accepts alone."""
    for action in parser._actions:
        if action.option_strings and action.dest not in ("help", "task"):
            option = action.option_strings[0]
            value = [] if action.nargs == 0 else [str((action.choices or ["1"])[0])]
            yield action.dest, option, [option, *value]


@pytest.mark.parametrize("task", sorted(cli.FLAG_DEFAULTS))
def test_every_flag_is_read_or_refused_as_the_task_table_says(tmp_path, monkeypatch, caplog, task):
    parser = cli.build_parser()
    loads = _counted(monkeypatch, cli, "resolve_inputs")
    monkeypatch.chdir(tmp_path)
    reads = cli.FLAG_DEFAULTS[task]
    unset = cli.config_from_args(parser.parse_args(["--task", task]), parser)
    assert {dest: getattr(unset, dest) for dest in reads} == dict(reads)
    for dest, option, tail in _flag_values(parser):
        argv = ["--task", task, *tail]
        if dest in reads:
            cfg = cli.config_from_args(parser.parse_args(argv), parser)
            assert getattr(cfg, dest) == getattr(parser.parse_args(argv), dest), option
        else:
            caplog.clear()
            assert main(argv) == EXIT_CONFIG, option
            assert f"--task {task} does not read {option}" in caplog.text
    assert loads == [] and list(tmp_path.iterdir()) == []


def test_negative_seed_is_refused_before_any_input_is_loaded(tmp_path, monkeypatch, capsys):
    loads = _counted(monkeypatch, cli, "resolve_inputs")
    args = SEARCH_ARGS["adp"] + ["--seed", "-1", "--out", str(tmp_path / "plan.json")]
    assert _exit_code(args) == EXIT_CONFIG
    assert "argument --seed: '-1' is not an integer of at least 0" in capsys.readouterr().err
    assert loads == [] and list(tmp_path.iterdir()) == []


def test_zero_epsilon_decay_explores_at_the_final_rate(tmp_path):
    code, _ = _search(tmp_path, "adp", "--epsilon-decay", "0")
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "plan_summary.json").read_text())
    assert summary["defaults"]["epsilon_decay_iters"] == 0
    assert summary["final_epsilon"] == EPSILON_FINAL


MEMORY_ARGS = [
    "--task", "pp-train", "--graph", "uniform_chain", "--stages", "4", "--topology", "configc",
    "--episodes", "30", "--seed", "1",
]


def test_memory_budget_no_plan_fits_is_infeasible(tmp_path, caplog):
    out = tmp_path / "plan.json"
    assert main(MEMORY_ARGS + ["--mem-per-device", "1", "--out", str(out)]) == EXIT_INFEASIBLE
    assert "no memory-feasible plan" in caplog.text
    assert not out.exists()


def test_memory_budget_every_plan_fits_changes_nothing(tmp_path):
    free, ample = tmp_path / "free", tmp_path / "ample"
    for workdir, extra in ((free, []), (ample, ["--mem-per-device", "1e18"])):
        workdir.mkdir()
        assert main(MEMORY_ARGS + [*extra, "--out", str(workdir / "plan.json")]) == EXIT_OK
    plans = [json.loads((workdir / "plan.json").read_text()) for workdir in (free, ample)]
    assert [plan.pop("mem_per_device") for plan in plans] == [None, 1e18]
    assert plans[0] == plans[1]
    assert (free / "plan_curve.csv").read_bytes() == (ample / "plan_curve.csv").read_bytes()


def test_validate_rechecks_the_memory_fit_of_a_budgeted_plan(tmp_path, caplog):
    plan = tmp_path / "plan.json"
    assert main(MEMORY_ARGS + ["--mem-per-device", "1000", "--out", str(plan)]) == EXIT_OK
    payload = json.loads(plan.read_text())
    assert (payload["mem_per_device"], payload["memory_feasible"]) == (1000.0, True)
    assert main(["--task", "validate", "--plan", str(plan)]) == EXIT_OK
    # a plan edited to claim it does not fit used to validate all the same
    plan.write_text(json.dumps({**payload, "memory_feasible": False}))
    assert main(["--task", "validate", "--plan", str(plan)]) == EXIT_INFEASIBLE
    assert "memory_feasible is False" in caplog.text


@pytest.mark.parametrize("task", sorted(SEARCH_ARGS))
def test_summary_times_every_phase(tmp_path, task):
    extra = ["--finetune"] if task == "opp" else []
    started = time.monotonic()
    code, _ = _search(tmp_path, task, *extra)
    wall = time.monotonic() - started
    assert code == EXIT_OK
    phases = json.loads((tmp_path / "plan_summary.json").read_text())["phase_s"]
    assert set(phases) == {"load_inputs", "build_env", "train", "finetune", "validate"}
    assert all(seconds >= 0.0 for seconds in phases.values())
    assert sum(phases.values()) <= wall
    assert (phases["finetune"] > 0.0) == bool(extra)


@pytest.mark.parametrize("task", ["pp-train", "pp-infer"])
def test_length_terms_add_up_to_the_plan_length(tmp_path, task):
    code, plan = _search(tmp_path, task)
    assert code == EXIT_OK
    length = json.loads(plan.read_text())["pipeline_length_s"]
    terms = json.loads((tmp_path / "plan_summary.json").read_text())["length_terms"]
    stages = terms["stages"]
    assert "transfer_s" not in stages[-1]
    recomputed = (
        terms["fill_drain_s"]
        + sum(s["time_s"] for s in stages)
        + sum(s["transfer_s"] for s in stages[:-1])
        + max(s["allreduce_s"] for s in stages)
    )
    assert recomputed == length


def test_length_terms_show_an_activation_transfer():
    env = PipeInferEnv(build_environment_arrays(bert48_profile()), load_topology("configc"), 4)
    terms = {}
    for boundaries in ((34, 66, 98), (34, 68, 98)):
        plan = PipelinePlan(boundaries, (8, 16, 24), micro_batches=1)
        metrics = env.decode_metrics(boundaries)
        terms[boundaries] = length_breakdown(plan, metrics, env.topo_norm)
        terms[boundaries]["length"] = pipeline_length(plan, metrics, env.topo_norm)
    good, bad = terms[(34, 66, 98)], terms[(34, 68, 98)]
    assert good["length"] == pytest.approx(0.8745)
    assert bad["length"] == pytest.approx(10.1578, abs=1e-4)
    # boundary 68 sits off an activation dip: the hop after stage 1 carries
    # almost all of the rise
    hops = zip(good["stages"][:-1], bad["stages"][:-1])
    rise = [b["transfer_s"] - g["transfer_s"] for g, b in hops]
    assert rise[1] == pytest.approx(9.256) and rise[0] == rise[2] == 0.0
    assert rise[1] > 0.9 * (bad["length"] - good["length"])
