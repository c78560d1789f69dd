"""The command line: search runs, their artifacts, and plan validation."""

import csv
import json
import sys
import time
from itertools import accumulate
from pathlib import Path

import pytest

from autoplan.agent import AgentConfig, epsilon_at
from autoplan.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from autoplan.dataproc import build_environment_arrays
from autoplan.envs import PipeInferEnv
from autoplan.pipecost import PipelinePlan, length_breakdown, pipeline_length
from autoplan.topology import load_topology
from autoplan.zoo import bert48_profile, t5_block, zoo_graph

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
}
DROP = object()


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
        # micro-batch counts and sizes are positive ints
        (INFER_PLAN, {"micro_batches": "4"}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"micro_batches": True}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"micro_batch_size": 0}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"micro_batches": "4"}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"micro_batches": 0}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"micro_batch_size": 16.0}, EXIT_INFEASIBLE),
        (TRAIN_PLAN, {"micro_batch_size": -16}, EXIT_INFEASIBLE),
        # an inference pipeline has 2..32 stages on configc
        (INFER_PLAN, {"boundaries": [], "device_cuts": []}, EXIT_INFEASIBLE),
        (INFER_PLAN, {"boundaries": list(range(1, 34)), "device_cuts": list(range(1, 34))}, EXIT_INFEASIBLE),
        # --stages 1 refuses to plan, so a one-stage training plan is not valid
        (TRAIN_PLAN, {"pivots": [], "device_cuts": [], "pipeline_length_s": 0.024}, EXIT_INFEASIBLE),
    ],
    ids=[
        "infer-valid", "infer-empty-stage", "infer-boundary-0", "infer-boundary-200",
        "infer-decreasing", "infer-no-boundaries", "infer-boundaries-int", "infer-boundary-float",
        "infer-no-device-cuts", "infer-device-cuts-int", "train-valid", "train-no-pivots",
        "train-pivots-int", "train-pivot-ids", "train-no-device-cuts", "train-device-cuts-str",
        "infer-micro-batches-str", "infer-micro-batches-bool", "infer-micro-batch-size-0",
        "train-micro-batches-str", "train-micro-batches-0", "train-micro-batch-size-float",
        "train-micro-batch-size-negative", "infer-no-cuts", "infer-34-stages", "train-one-stage",
    ],
)
def test_pipeline_plan_on_bundled_inputs(tmp_path, base, change, status):
    payload = {**base, **change}
    payload = {key: value for key, value in payload.items() if value is not DROP}
    assert _validate(tmp_path, payload) == status


def test_plan_that_is_not_an_object_is_config_error(tmp_path):
    assert _validate(tmp_path, [1]) == EXIT_CONFIG

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
        # 50 episodes of 6 steps; learning starts at the 64th transition and
        # then runs on every 4th
        (
            ["--task", "pp-infer", "--graph", "bert48_profile", "--episodes", "50",
             "--stages", "4", "--topology", "configc"],
            (300 - 64) // 4 + 1,
        ),
    ],
    ids=["adp-short", "pp-infer"],
)
def test_summary_counts_learn_steps(tmp_path, args, learn_steps):
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_OK
    assert json.loads((tmp_path / "plan_summary.json").read_text())["learn_steps"] == learn_steps


def test_epsilon_decays_per_decision_on_fixed_length_episodes(tmp_path):
    args = SEARCH_ARGS["pp-infer"] + ["--episodes", "50", "--epsilon-decay", "150"]
    assert main(args + ["--out", str(tmp_path / "plan.json")]) == EXIT_OK
    config = AgentConfig(**json.loads((tmp_path / "plan_summary.json").read_text())["defaults"])
    # one update per decision from the 64th on, as if every decision trained
    expected = [f"{epsilon_at(max(0, 6 * (ep + 1) - 63), config):.6g}" for ep in range(50)]
    assert [row["epsilon"] for row in _curve(tmp_path)] == expected
    assert expected[-1] == f"{config.epsilon_final:.6g}"


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
        ("t5_block", 2, 10, 0.8, 7, T5_FINETUNED, 20),
        ("attention_block", 17, 10, 0.8, 4, ATTENTION_FINETUNED, 20),
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


def test_buffer_smaller_than_a_batch_is_config_error(tmp_path):
    args = SEARCH_ARGS["pp-infer"] + ["--buffer", "10", "--out", str(tmp_path / "plan.json")]
    assert main(args) == EXIT_CONFIG


def test_gen_data_task_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--task", "gen-data", "--out", str(tmp_path / "envs.jsonl")])
    assert exc.value.code == EXIT_CONFIG


def test_more_stages_than_devices_is_infeasible(tmp_path):
    args = ["--task", "pp-train", "--graph", "uniform_chain", "--stages", "20", "--topology", "configa"]
    assert main(args + ["--episodes", "2", "--out", str(tmp_path / "plan.json")]) == EXIT_INFEASIBLE


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
