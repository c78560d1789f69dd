"""Command-line driver for the plan-search tasks.

Wires graphs, topologies, environments and the DQN agent into runnable
searches: one episode loop (``train``) and one runner serve all four search
tasks, with a ``SearchTask`` entry per task.  Each run emits the best plan
as JSON (byte-identical for identical config and seed), an incrementally
flushed training-curve CSV (episode, mean loss of the episode's updates,
total score, epsilon), and a run summary JSON: the effective defaults, the
best reward, the episode that found it (``found_at_episode``), the wall time
from the start of training to that episode (``time_to_best_s``),
``final_epsilon``, ``learn_steps``, and ``phase_s``, the seconds spent
loading inputs, building the env (linkage included), training, fine-tuning
(0 without ``--finetune``) and self-validating.
Partition searches (opp, adp) also report ``propagations``, the propagation
runs the search made (linkage extraction, env steps and self-validation),
``conflicts``, the episodes that ended in a conflict (fine-tuning ones
included).  Pipeline searches report the ``length_terms`` of the plan, the
per-stage terms its length adds up from; they stay out of the plan JSON,
whose fields are those of earlier plans.

From the first full batch on, the agent trains once every ``LEARN_EVERY``
(4) decisions, so ``learn_steps`` is about a quarter of the decisions, and an
episode with no update, such as one in four of pp-train's 3-decision
episodes at K=4, leaves its ``loss`` empty.  Epsilon decays per decision all
the same.

Exit codes: 0 ok, 2 configuration error, 3 infeasible (no valid plan),
4 training divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from autoplan.agent import LEARN_EVERY, AgentConfig, DivergenceError, DqnAgent, Transition
from autoplan.dataproc import (
    GRANULARITY,
    CoarsenedArrays,
    ProfileError,
    build_environment_arrays,
    generate_environment,
    load_profile,
)
from autoplan.envs import (
    AdpEnv,
    OppEnv,
    PartitionSearchEnv,
    PipeInferEnv,
    PipeTrainEnv,
    adp_candidates,
    infer_search_bands,
)
from autoplan.ir import DimIndex, GraphError, HloGraph, decision_dims, load_graph
from autoplan.linkage import extract_linkage_groups
from autoplan.pipecost import (
    InfeasiblePlanError,
    PipelinePlan,
    StageMetrics,
    device_groups,
    length_breakdown,
    pipeline_length,
    stage_metrics,
)
from autoplan.sharding import DimStatus, Outcome, PropagationEngine, propagate
from autoplan.topology import DeviceTopology, TopologyError, load_topology
from autoplan.zoo import GRAPHS, PROFILES, zoo_graph, zoo_profile

logger = logging.getLogger(__name__)

SearchEnv = PartitionSearchEnv | PipeTrainEnv | PipeInferEnv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4

GEN_SOURCE_LENGTH = 10 * GRANULARITY

# per-task defaults; agent settings not listed here come from AgentConfig
TASK_DEFAULTS: dict[str, dict[str, float | int]] = {
    "opp": {"lr": 0.0005, "epsilon_decay_iters": 2000, "episodes": 2000},
    "adp": {"lr": 0.0005, "epsilon_decay_iters": 500, "episodes": 500},
    "pp-train": {"lr": 0.001, "epsilon_decay_iters": 10000, "episodes": 500},
    "pp-infer": {"lr": 0.001, "epsilon_decay_iters": 10000, "episodes": 50, "micro_batches": 1},
}


class ConfigError(Exception):
    """Bad flags or unloadable inputs."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, resolved from flags and task defaults."""

    task: str
    graph: str | None
    topology: str | None
    stages: int
    radius: int
    micro_batches: int
    micro_batch_size: int
    episodes: int
    seed: int
    out: str
    finetune: bool
    reward_shape: str
    log: str | None
    dist: str
    plan: str | None
    mem_per_device: float | None
    gamma: float | None
    lr: float | None
    batch_size: int | None
    buffer: int | None
    epsilon_decay: int | None


def agent_config_for(cfg: RunConfig) -> AgentConfig:
    """Flags override the task's ``TASK_DEFAULTS``, which override ``AgentConfig``'s."""
    defaults = TASK_DEFAULTS.get(cfg.task, {})
    overrides = {key: defaults[key] for key in ("lr", "epsilon_decay_iters") if key in defaults}
    flags = {
        "gamma": cfg.gamma,
        "lr": cfg.lr,
        "batch_size": cfg.batch_size,
        "buffer_capacity": cfg.buffer,
        "epsilon_decay_iters": cfg.epsilon_decay,
    }
    overrides.update((key, value) for key, value in flags.items() if value is not None)
    return AgentConfig(**overrides)


# -- artifact writers -------------------------------------------------------


class CurveWriter:
    """Training-curve CSV, flushed after every episode."""

    def __init__(self, path: str):
        self._fh: TextIO = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(["episode", "loss", "score", "epsilon"])
        self._fh.flush()

    def write(self, episode: int, loss: float | None, score: float, epsilon: float) -> None:
        self._writer.writerow(
            [episode, "" if loss is None else f"{loss:.8g}", f"{score:.8g}", f"{epsilon:.6g}"]
        )
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class TraceWriter:
    """Optional JSON-lines episode traces."""

    def __init__(self, path: str):
        self._fh: TextIO = open(path, "w", encoding="utf-8")

    def write(self, episode: int, steps: list[dict], info: dict) -> None:
        """One episode's record; a conflict also names the instruction that met it."""
        conflict = info.get("conflict", False)
        record = {"episode": episode, "steps": steps, "outcome": "conflict" if conflict else "complete"}
        if conflict:
            record["conflict_site"] = info["conflict_site"]
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _digest(state: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(state, dtype=np.float64).tobytes()).hexdigest()[:12]


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _artifact_paths(out: str) -> tuple[str, str]:
    base = out[: -len(".json")] if out.endswith(".json") else out
    return base + "_curve.csv", base + "_summary.json"


# -- training loop ------------------------------------------------------------


@dataclass(frozen=True)
class Best:
    """The highest-ranked episode of a training run."""

    key: tuple | float  # the episode's rank
    info: dict  # the terminal step's info
    reward: float  # the episode's total reward
    episode: int
    found_at: float  # time.monotonic() at the end of the episode


def train(
    env: SearchEnv,
    agent: DqnAgent,
    episodes: int,
    rank: Callable[[dict, float], tuple | float | None],
    curve: CurveWriter,
    trace: TraceWriter | None = None,
    reset: Callable[[], np.ndarray] | None = None,
    episode_offset: int = 0,
) -> Best | None:
    """Run decision episodes on one environment and return the best one.

    ``rank(terminal_info, total_reward)`` gives an episode's key, or None when
    its plan is unusable; a strictly greater key replaces the incumbent, so
    the first-found plan wins a tie.  ``reset`` (default ``env.reset``) starts
    each episode; training stops early if it leaves nothing to decide.
    """
    reset = reset or env.reset
    best: Best | None = None
    for ep in range(episode_offset, episode_offset + episodes):
        state = reset()
        if env.done:
            break
        total = 0.0
        losses: list[float] = []
        steps: list[dict] = []
        info: dict = {}
        mask = env.action_mask()
        while not env.done:
            action = agent.act(state, mask)
            result = env.step(action)
            # the next step acts on the mask this transition stores
            mask = env.action_mask()
            agent.observe(
                Transition(state, action, result.reward, result.next_state, result.done, mask)
            )
            loss = agent.learn() if agent.observed % LEARN_EVERY == 0 else None
            if loss is not None:
                losses.append(loss)
            if trace is not None:
                steps.append(
                    {"state_digest": _digest(state), "action": action, "reward": result.reward}
                )
            total += result.reward
            info = result.info
            state = result.next_state
        key = rank(info, total)
        if key is not None and (best is None or key > best.key):
            best = Best(key, info, total, ep, time.monotonic())
        mean_loss = sum(losses) / len(losses) if losses else None
        curve.write(ep, mean_loss, total, agent.epsilon)
        if trace is not None:
            trace.write(ep, steps, info)
    return best


# -- input resolution -------------------------------------------------------


def resolve_graph(spec: str | None) -> HloGraph:
    if spec is None:
        raise ConfigError("this task needs --graph (a file path or a bundled graph name)")
    if os.path.exists(spec):
        return load_graph(spec)
    if spec in GRAPHS:
        return zoo_graph(spec)
    raise ConfigError(f"--graph {spec!r} is neither a file nor one of {sorted(GRAPHS)}")


def resolve_arrays(cfg: RunConfig) -> CoarsenedArrays:
    if cfg.graph is not None:
        if os.path.exists(cfg.graph):
            return build_environment_arrays(load_profile(cfg.graph))
        if cfg.graph in PROFILES:
            return build_environment_arrays(zoo_profile(cfg.graph))
        raise ConfigError(
            f"--graph {cfg.graph!r} is neither a profile file nor one of {sorted(PROFILES)}"
        )
    return generate_environment(cfg.dist, GEN_SOURCE_LENGTH, cfg.seed)


def resolve_topology(spec: str) -> DeviceTopology:
    try:
        return load_topology(spec)
    except (TopologyError, OSError, ValueError) as exc:
        raise ConfigError(f"cannot load topology {spec!r}: {exc}") from exc


def resolve_inputs(cfg: RunConfig, names: Sequence[str]) -> dict:
    """Load the named inputs (graph, topo, arrays) that the flags point at."""
    loaders = {
        "graph": lambda: resolve_graph(cfg.graph),
        "topo": lambda: resolve_topology(cfg.topology or "configa"),
        "arrays": lambda: resolve_arrays(cfg),
    }
    return {name: loaders[name]() for name in names}


# -- plan payloads and validation -------------------------------------------


def _strategy_payload(
    graph: HloGraph, strategy: Mapping[DimIndex, DimStatus]
) -> dict[str, int]:
    by_tensor: dict[str, int] = {}
    for dim, status in strategy.items():
        name = graph.instruction(dim.instruction_id).name
        by_tensor.setdefault(name, -1)
        if status == DimStatus.PARTITIONED:
            by_tensor[name] = dim.dim
    return by_tensor


def _stage_payload(metrics: Sequence[StageMetrics], plan: PipelinePlan, topo: DeviceTopology) -> list[dict]:
    groups = device_groups(plan.device_cuts, topo.num_devices)
    return [
        {
            "compute_ms": m.compute_ms,
            "activation_bytes": m.activation_bytes,
            "param_bytes": m.param_bytes,
            "devices": end - start,
        }
        for m, (start, end) in zip(metrics, groups)
    ]


def validate_payload(
    payload: dict,
    graph: HloGraph | None = None,
    topo: DeviceTopology | None = None,
    arrays: CoarsenedArrays | None = None,
) -> tuple[bool, str]:
    """Re-derive a plan payload from first principles and compare."""
    task = payload.get("task")
    if task in ("opp", "adp"):
        if graph is None:
            return False, "sharding validation needs the graph"
        names = (
            list(graph.trainable_variables)
            if task == "opp"
            else [graph.instruction(i).name for i in adp_candidates(graph)]
        )
        dims = decision_dims(graph, names)
        strategy = payload.get("strategy", {})
        if not isinstance(strategy, dict) or set(strategy) != set(names):
            return False, "strategy keys do not match the candidate tensors"
        for name, chosen in strategy.items():
            rank = graph.by_name(name).shape.rank
            if type(chosen) is not int or not -1 <= chosen < rank:
                return False, f"strategy value {chosen!r} of {name!r} is not a dim in -1..{rank - 1}"
        seeds = {}
        for d in dims:
            chosen = strategy[graph.instruction(d.instruction_id).name]
            seeds[d] = DimStatus.PARTITIONED if chosen == d.dim else DimStatus.REPLICATED
        result = propagate(graph, seeds, dims)
        if result.outcome is not Outcome.COMPLETE:
            return False, f"strategy does not propagate cleanly: {result.outcome.name}"
        partitions = sum(1 for v in strategy.values() if v >= 0)
        count = payload.get("partition_count")
        if type(count) is not int or count != partitions:
            return False, f"partition_count {count!r} does not match the strategy"
        return True, "strategy propagates conflict-free"
    if task not in ("pp-train", "pp-infer"):
        return False, f"unknown plan task {task!r}"
    cut_field, cut_type = ("pivots", str) if task == "pp-train" else ("boundaries", int)
    for key, kind in ((cut_field, cut_type), ("device_cuts", int)):
        values = payload.get(key)
        if not isinstance(values, list) or any(type(v) is not kind for v in values):
            return False, f"{key} must be a list of {kind.__name__} values"
    sizes = {
        "micro_batches": payload.get("micro_batches", 1),
        "micro_batch_size": payload.get("micro_batch_size", 16),
    }
    for key, value in sizes.items():
        if type(value) is not int or value < 1:
            return False, f"{key} {value!r} is not a positive int"
    if task == "pp-train":
        if graph is None or topo is None:
            return False, "pipeline validation needs the graph and topology"
        by_name = {graph.instruction(i).name: i for i in graph.topological_order}
        try:
            pivots = tuple(by_name[name] for name in payload["pivots"])
        except KeyError as exc:
            return False, f"unknown pivot {exc}"
    else:
        if arrays is None or topo is None:
            return False, "inference validation needs the profile and topology"
        pivots = tuple(payload["boundaries"])
    # planning refuses a single stage, so a plan cannot have one
    if not 1 <= len(pivots) < topo.num_devices:
        return False, f"{cut_field} must give 2..{topo.num_devices} stages"
    if task == "pp-train":
        metrics = stage_metrics(graph, pivots)
    else:
        env = PipeInferEnv(arrays, topo, num_stages=len(pivots) + 1)
        metrics = env.decode_metrics(pivots)
        # inference plans are costed on the normalized topology
        topo = env.topo_norm
    plan = PipelinePlan(pivots, tuple(payload["device_cuts"]), **sizes)
    length = pipeline_length(plan, metrics, topo)
    if abs(length - payload.get("pipeline_length_s", -1.0)) > 1e-9 * max(1.0, length):
        return False, f"recomputed pipeline length {length} disagrees"
    return True, "pipeline length matches the cost model"


# -- search tasks ------------------------------------------------------------


def _opp_env(cfg: RunConfig, inputs: dict) -> SearchEnv:
    graph = inputs["graph"]
    groups = extract_linkage_groups(graph, decision_dims(graph, graph.trainable_variables))
    return OppEnv(graph, groups=groups)


def _adp_env(cfg: RunConfig, inputs: dict) -> SearchEnv:
    return AdpEnv(inputs["graph"])


def _pp_train_env(cfg: RunConfig, inputs: dict) -> SearchEnv:
    return PipeTrainEnv(
        inputs["graph"],
        inputs["topo"],
        num_stages=cfg.stages,
        radius=cfg.radius,
        micro_batches=cfg.micro_batches,
        micro_batch_size=cfg.micro_batch_size,
        mem_per_device=cfg.mem_per_device,
        reward_shape=cfg.reward_shape,
    )


def _pp_infer_env(cfg: RunConfig, inputs: dict) -> SearchEnv:
    arrays, topo = inputs["arrays"], inputs["topo"]
    boundary_bands, cut_bands = infer_search_bands(arrays, topo, cfg.stages, cfg.radius)
    return PipeInferEnv(
        arrays,
        topo,
        num_stages=cfg.stages,
        micro_batches=cfg.micro_batches,
        micro_batch_size=cfg.micro_batch_size,
        allowed_boundaries=boundary_bands,
        allowed_cuts=cut_bands,
    )


def _complete_rank(info: dict, total: float) -> tuple[int, float] | None:
    """Conflict-free strategies, by partition count and then episode reward."""
    return None if info.get("conflict", False) else (info["partition_count"], total)


def _feasible_rank(info: dict, total: float) -> float | None:
    """Memory-feasible pipelines, shortest first."""
    return -info["pipeline_length"] if info.get("memory_feasible", True) else None


def _partition_payload(cfg: RunConfig, inputs: dict, best: Best) -> dict:
    return {
        "finetune": cfg.finetune,
        "strategy": _strategy_payload(inputs["graph"], best.info["strategy"]),
        "partition_count": best.info["partition_count"],
        "episode_reward": best.reward,
        "found_at_episode": best.episode,
    }


def _pipe_payload(cfg: RunConfig, inputs: dict, best: Best) -> dict:
    plan = best.info["plan"]
    return {
        "topology": cfg.topology,
        "micro_batches": cfg.micro_batches,
        "micro_batch_size": cfg.micro_batch_size,
        "device_cuts": list(plan.device_cuts),
        "stages": _stage_payload(best.info["metrics"], plan, inputs["topo"]),
        "pipeline_length_s": best.info["pipeline_length"],
    }


def _pp_train_payload(cfg: RunConfig, inputs: dict, best: Best) -> dict:
    graph = inputs["graph"]
    return {
        **_pipe_payload(cfg, inputs, best),
        "pivots": [graph.instruction(p).name for p in best.info["plan"].pivot_ids],
        "memory_feasible": best.info["memory_feasible"],
    }


def _pp_infer_payload(cfg: RunConfig, inputs: dict, best: Best) -> dict:
    return {
        **_pipe_payload(cfg, inputs, best),
        "distribution": None if cfg.graph is not None else cfg.dist,
        "boundaries": list(best.info["plan"].pivot_ids),
        "units": "normalized",
    }


@dataclass(frozen=True)
class SearchTask:
    """The task-specific pieces of a search run and of plan validation."""

    # resolve_inputs names; the loaded inputs are validate_payload's keywords
    inputs: tuple[str, ...]
    # builds the env from the config and inputs
    env: Callable[[RunConfig, dict], SearchEnv]
    rank: Callable[[dict, float], tuple | float | None]
    # plan fields beyond task, graph, seed and episodes
    payload: Callable[[RunConfig, dict, Best], dict]
    # (summary field, terminal info key) of the plan's headline figure
    headline: tuple[str, str]
    wanted: str  # what a usable plan is, for the error message
    # restarts an episode from the best plan's terminal info (--finetune)
    finetune_reset: Callable[[SearchEnv, dict], np.ndarray] | None = None
    # the topology a pipeline plan is costed on, for its length_terms summary
    cost_topology: Callable[[SearchEnv], DeviceTopology] | None = None


def _partition_finetune_reset(env: PartitionSearchEnv, info: dict) -> np.ndarray:
    return env.finetune_reset(info["strategy"])


SEARCH_TASKS: dict[str, SearchTask] = {
    "opp": SearchTask(
        ("graph",), _opp_env, _complete_rank, _partition_payload,
        ("best_partitions", "partition_count"), "conflict-free strategy", _partition_finetune_reset,
    ),
    "adp": SearchTask(
        ("graph",), _adp_env, _complete_rank, _partition_payload,
        ("best_partitions", "partition_count"), "conflict-free strategy", _partition_finetune_reset,
    ),
    "pp-train": SearchTask(
        ("graph", "topo"), _pp_train_env, _feasible_rank, _pp_train_payload,
        ("pipeline_length_s", "pipeline_length"), "memory-feasible plan",
        cost_topology=lambda env: env.topo,
    ),
    "pp-infer": SearchTask(
        ("arrays", "topo"), _pp_infer_env, _feasible_rank, _pp_infer_payload,
        ("pipeline_length_s", "pipeline_length"), "plan",
        cost_topology=lambda env: env.topo_norm,
    ),
}


# the timed phases of a search run, in run order
PHASES = ("load_inputs", "build_env", "train", "finetune", "validate")


def _lap(phases: dict[str, float], phase: str, since: float) -> float:
    """Book the time since ``since`` to the phase; returns the current time."""
    now = time.monotonic()
    phases[phase] = now - since
    return now


def _run_search(cfg: RunConfig) -> int:
    """Train, then write the self-validated best plan, its curve and a summary."""
    task = SEARCH_TASKS[cfg.task]
    phases = dict.fromkeys(PHASES, 0.0)
    clock = time.monotonic()
    inputs = resolve_inputs(cfg, task.inputs)
    clock = _lap(phases, "load_inputs", clock)
    runs_before = PropagationEngine.runs
    env = task.env(cfg, inputs)
    clock = _lap(phases, "build_env", clock)
    agent = DqnAgent(agent_config_for(cfg), env.state_dim, env.num_actions, cfg.seed)
    curve_path, summary_path = _artifact_paths(cfg.out)
    curve = CurveWriter(curve_path)
    trace = TraceWriter(cfg.log) if cfg.log else None
    started = time.monotonic()
    try:
        best = train(env, agent, cfg.episodes, task.rank, curve, trace)
        clock = _lap(phases, "train", started)
        if best is not None and cfg.finetune and task.finetune_reset is not None:
            stage2 = train(
                env, agent, cfg.episodes, task.rank, curve, trace,
                reset=lambda: task.finetune_reset(env, best.info), episode_offset=cfg.episodes,
            )
            _lap(phases, "finetune", clock)
            if stage2 is not None and stage2.key > best.key:
                best = stage2
    finally:
        curve.close()
        if trace is not None:
            trace.close()
    if best is None:
        logger.error("no %s found in %d episodes", task.wanted, cfg.episodes)
        return EXIT_INFEASIBLE
    payload = {
        "task": cfg.task,
        "graph": cfg.graph,
        "seed": cfg.seed,
        "episodes": cfg.episodes,
        **task.payload(cfg, inputs, best),
    }
    clock = time.monotonic()
    ok, message = validate_payload(payload, **inputs)
    _lap(phases, "validate", clock)
    if not ok:
        logger.error("emitted plan failed self-validation: %s", message)
        return EXIT_INFEASIBLE
    write_json(cfg.out, payload)
    field, key = task.headline
    summary = {
        "task": cfg.task,
        "best_reward": best.reward,
        "found_at_episode": best.episode,
        "time_to_best_s": best.found_at - started,
        "final_epsilon": agent.epsilon,
        "learn_steps": agent.train_steps,
        "episodes": cfg.episodes,
        "seed": cfg.seed,
        "defaults": asdict(agent_config_for(cfg)),
        field: best.info[key],
        "phase_s": phases,
    }
    if task.cost_topology is not None:
        summary["length_terms"] = length_breakdown(
            best.info["plan"], best.info["metrics"], task.cost_topology(env)
        )
    if isinstance(env, PartitionSearchEnv):
        # linkage extraction, env steps and self-validation alike
        summary["propagations"] = PropagationEngine.runs - runs_before
        summary["conflicts"] = env.conflicts
    write_json(summary_path, summary)
    logger.info("wrote %s (%s %.6g, episode %d)", cfg.out, field, best.info[key], best.episode)
    return EXIT_OK


def _run_validate(cfg: RunConfig) -> int:
    if cfg.plan is None:
        raise ConfigError("validate needs --plan")
    try:
        with open(cfg.plan, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read plan {cfg.plan!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"plan {cfg.plan!r} is not a JSON object")
    task = SEARCH_TASKS.get(payload.get("task"))
    # flags override the inputs the plan names
    planned = replace(
        cfg,
        graph=cfg.graph or payload.get("graph"),
        topology=cfg.topology or payload.get("topology"),
        dist=payload.get("distribution") or cfg.dist,
        seed=payload.get("seed", cfg.seed),
    )
    inputs = resolve_inputs(planned, task.inputs if task is not None else ())
    ok, message = validate_payload(payload, **inputs)
    if ok:
        logger.info("plan %s is valid: %s", cfg.plan, message)
        return EXIT_OK
    logger.error("plan %s is invalid: %s", cfg.plan, message)
    return EXIT_INFEASIBLE


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoplan",
        description="Search distributed execution plans for serialized computation graphs.",
    )
    parser.add_argument(
        "--task",
        required=True,
        choices=[*SEARCH_TASKS, "validate"],
        help="a plan search, or validate to re-check a plan file",
    )
    parser.add_argument("--graph", help="graph/profile file or bundled name")
    parser.add_argument(
        "--topology", help="preset name or JSON file (default configa; validate: the plan's)"
    )
    parser.add_argument("--stages", type=int, default=2, help="pipeline stage count K")
    parser.add_argument("--radius", type=int, default=3, help="search pruning radius")
    parser.add_argument(
        "--micro-batches", type=int, help="per global batch (default 4, pp-infer 1)"
    )
    parser.add_argument("--micro-batch-size", type=int, default=16)
    parser.add_argument("--episodes", type=int, help="training episode budget")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="plan output path (default <task>_plan.json)")
    parser.add_argument("--finetune", action="store_true", help="opp: run the backtrace stage")
    parser.add_argument("--reward-shape", choices=["inv", "inv-sqrt"], default="inv")
    parser.add_argument("--log", help="episode trace JSONL path")
    parser.add_argument(
        "--dist",
        default="uniform",
        choices=["uniform", "normal", "binomial"],
        help="pp-infer without --graph: distribution of the generated environment",
    )
    parser.add_argument("--plan", help="validate: plan JSON to check")
    parser.add_argument("--mem-per-device", type=float, help="memory budget in bytes")
    parser.add_argument("--gamma", type=float, help="override discount factor")
    parser.add_argument("--lr", type=float, help="override learning rate")
    parser.add_argument("--batch-size", type=int, help="override training batch size")
    parser.add_argument("--buffer", type=int, help="override replay buffer capacity")
    parser.add_argument("--epsilon-decay", type=int, help="override the decisions epsilon takes to decay")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    defaults = TASK_DEFAULTS.get(args.task, {})
    episodes = args.episodes if args.episodes is not None else int(defaults.get("episodes", 500))
    out = args.out if args.out is not None else f"{args.task.replace('-', '_')}_plan.json"
    micro_batches = (
        args.micro_batches if args.micro_batches is not None else int(defaults.get("micro_batches", 4))
    )
    return RunConfig(
        task=args.task,
        graph=args.graph,
        topology=args.topology,
        stages=args.stages,
        radius=args.radius,
        micro_batches=micro_batches,
        micro_batch_size=args.micro_batch_size,
        episodes=episodes,
        seed=args.seed,
        out=out,
        finetune=args.finetune,
        reward_shape=args.reward_shape,
        log=args.log,
        dist=args.dist,
        plan=args.plan,
        mem_per_device=args.mem_per_device,
        gamma=args.gamma,
        lr=args.lr,
        batch_size=args.batch_size,
        buffer=args.buffer,
        epsilon_decay=args.epsilon_decay,
    )


_RUNNERS = {**dict.fromkeys(SEARCH_TASKS, _run_search), "validate": _run_validate}


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    try:
        return _RUNNERS[cfg.task](cfg)
    except ConfigError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except (GraphError, ProfileError, TopologyError) as exc:
        logger.error("cannot load inputs: %s", exc)
        return EXIT_CONFIG
    except InfeasiblePlanError as exc:
        logger.error("infeasible: %s", exc)
        return EXIT_INFEASIBLE
    except DivergenceError as exc:
        logger.error("training diverged: %s", exc)
        return EXIT_DIVERGED
    except ValueError as exc:
        logger.error("bad configuration: %s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
