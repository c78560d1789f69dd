"""Command-line driver for the plan-search tasks.

Wires graphs, topologies, environments and the DQN agent into runnable
searches: one episode loop (``train``) and one runner serve all four search
tasks, with a ``SearchTask`` entry per task; the env ranks the episodes
(``env.rank``).  Each run emits the best plan as JSON (byte-identical for
identical config and seed on one Python version; ``autoplan.agent`` says
which of its random draws other versions may change), an incrementally
flushed training-curve CSV (episode, mean loss of the episode's updates,
total score, epsilon), and a run summary JSON: the effective defaults, the
best reward, the episode that found it (``found_at_episode``), the wall
time from the start of training to that episode (``time_to_best_s``),
``final_epsilon``, ``learn_steps``, and ``phase_s``, the seconds spent
loading inputs, building the env (its one-off runs included), training,
fine-tuning (0 without ``--finetune``) and self-validating.
Partition searches (opp, adp) also report ``propagations``, the propagation
runs the search made (linkage extraction or adp's lone-partition
feasibility runs, env steps and self-validation), and ``conflicts``, the
episodes that ended in a conflict (fine-tuning ones included).  An opp run
builds two propagation engines: one that linkage extraction and the env
share, and self-validation's own; sharing the first changes no count in
``propagations``.  Pipeline searches report the ``length_terms`` of the
plan, the per-stage terms its length adds up from on the env's
``cost_topology`` (normalized for pp-infer); they stay out of the plan
JSON, whose fields are those of earlier plans.
``--log`` writes one JSON line per episode: its outcome and, per step, a
digest of the state, the action and the reward.  An action is an index into
the env's actions; for pp-infer those are only the positions its bands
allow, so action ``i`` is the i-th of them in position order (boundary b is
position b-1, device cut c position 126+c), not the position itself.

A decision is act, env step, observe: ``DqnAgent.observe`` decides when to
train (once every four free decisions, from the first full batch on; see
``autoplan.agent``) and hands back the update's loss, so ``learn_steps`` is
about a quarter of the free decisions.  Each step hands back the env's mask
for the next decision, which the agent acts on and the transition stores.
An episode with no update, such as one in four of pp-train's 3-decision
episodes at K=4, leaves its ``loss`` empty.  Epsilon decays per observed
transition all the same.  The summary's ``defaults`` are the run's
``AgentConfig``, the two agent settings the tasks set apart.

``FLAG_DEFAULTS`` gives the flags each task reads, each with its value when
left unset (``--help`` shows them).  A flag the task does not read, or
``--dist`` beside ``--graph``, exits 2 before any input is loaded.  A plan's
input fields stand for its search's flags and get their checks.

Exit codes: 0 ok, 2 configuration error, 3 infeasible (no valid plan),
4 training divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from autoplan.agent import AgentConfig, DivergenceError, DqnAgent, Transition
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
    PickEnv,
    PipeInferEnv,
    PipeTrainEnv,
    adp_candidates,
    infer_search_bands,
)
from autoplan.ir import DimIndex, GraphError, HloGraph, decision_dims, load_graph, load_json
from autoplan.linkage import extract_linkage_groups
from autoplan.pipecost import (
    MICRO_BATCH_SIZE,
    InfeasiblePlanError,
    PipelinePlan,
    StageMetrics,
    device_groups,
    length_breakdown,
    memory_feasible,
    pipeline_length,
    stage_metrics,
)
from autoplan.sharding import DimStatus, Outcome, PropagationEngine, propagate, propagation_runs
from autoplan.topology import DeviceTopology, TopologyError, load_topology
from autoplan.zoo import GRAPHS, PROFILES, zoo_graph, zoo_profile

logger = logging.getLogger(__name__)

SearchEnv = PartitionSearchEnv | PickEnv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4

GEN_SOURCE_LENGTH = 10 * GRANULARITY

DISTRIBUTIONS = ("uniform", "normal", "binomial")


class ConfigError(Exception):
    """Bad flags or unloadable inputs."""


@dataclass(frozen=True)
class RunConfig:
    """The flags given, over the task's ``defaults``; a flag it does not read is None."""

    task: str
    graph: str | None = None
    topology: str | None = None
    stages: int | None = None
    radius: int | None = None
    micro_batches: int | None = None
    episodes: int | None = None
    seed: int | None = None
    out: str | None = None
    finetune: bool | None = None
    log: str | None = None
    dist: str | None = None
    plan: str | None = None
    mem_per_device: float | None = None
    lr: float | None = None
    epsilon_decay_iters: int | None = None


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
        # NaN and Infinity are not JSON; no artifact may carry them
        fh.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


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
    curve: CurveWriter,
    trace: TraceWriter | None = None,
    reset: Callable[[], np.ndarray] | None = None,
    episode_offset: int = 0,
) -> Best | None:
    """Run decision episodes on one environment and return the best one.

    ``env.rank(terminal_info, total_reward)`` gives an episode's key, or None
    when its plan is unusable; a strictly greater key replaces the incumbent,
    so the first-found plan wins a tie.  ``reset`` (default ``env.reset``) starts
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
            mask = result.next_mask
            loss = agent.observe(
                Transition(state, action, result.reward, result.next_state, result.done, mask)
            )
            if loss is not None:
                losses.append(loss)
            if trace is not None:
                steps.append(
                    {"state_digest": _digest(state), "action": action, "reward": result.reward}
                )
            total += result.reward
            info = result.info
            state = result.next_state
        key = env.rank(info, total)
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
    """Re-derive a plan payload from first principles and compare.

    The keywords are the inputs the plan's task loads (``SearchTask.inputs``).
    """
    task = payload.get("task")
    if task in ("opp", "adp"):
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
    # an absent size takes the value the search that wrote the plan used
    sizes = {
        "micro_batches": payload.get("micro_batches", SEARCH_TASKS[task].defaults["micro_batches"]),
        "micro_batch_size": payload.get("micro_batch_size", MICRO_BATCH_SIZE),
    }
    for key, value in sizes.items():
        if type(value) is not int or value < 1:
            return False, f"{key} {value!r} is not a positive int"
    if task == "pp-train":
        by_name = {graph.instruction(i).name: i for i in graph.topological_order}
        try:
            pivots = tuple(by_name[name] for name in payload["pivots"])
        except KeyError as exc:
            return False, f"unknown pivot {exc}"
    else:
        pivots = tuple(payload["boundaries"])
        if len(pivots) > GRANULARITY - 1:
            return False, f"more boundaries than the {GRANULARITY - 1} of the {GRANULARITY}-point grid"
    # planning refuses a single stage, so a plan cannot have one
    if not 1 <= len(pivots) < topo.num_devices:
        return False, f"{cut_field} must give 2..{topo.num_devices} stages"
    if task == "pp-train":
        metrics = stage_metrics(graph, pivots)
    else:
        env = PipeInferEnv(arrays, topo, num_stages=len(pivots) + 1)
        metrics = env.decode_metrics(pivots)
        topo = env.cost_topology
    plan = PipelinePlan(pivots, tuple(payload["device_cuts"]), **sizes)
    length = pipeline_length(plan, metrics, topo)
    recorded = payload.get("pipeline_length_s")
    if not isinstance(recorded, (int, float)) or not math.isfinite(recorded):
        return False, f"pipeline_length_s {recorded!r} is not a finite number"
    # abs(x - nan) > tol is false, so a NaN length needs its own check
    if not math.isfinite(length) or abs(length - recorded) > 1e-9 * max(1.0, length):
        return False, f"recomputed pipeline length {length} disagrees"
    if task == "pp-train":
        if payload.get("memory_feasible") is not True:
            return False, f"memory_feasible is {payload.get('memory_feasible')!r}, not true"
        # absent or null, the budget is --mem-per-device's default: none
        budget = payload.get("mem_per_device")
        if budget is not None and not memory_feasible(plan, metrics, topo, budget):
            return False, f"the stages do not fit mem_per_device {budget!r}"
    return True, "pipeline length matches the cost model"


# -- search tasks ------------------------------------------------------------


def _opp_env(cfg: RunConfig, inputs: dict) -> SearchEnv:
    """One engine serves linkage extraction and the search."""
    graph = inputs["graph"]
    if not graph.trainable_variables:
        raise ConfigError("operator partitioning needs trainable variables")
    engine = PropagationEngine(graph, decision_dims(graph, graph.trainable_variables))
    return OppEnv(engine, extract_linkage_groups(graph, engine.candidates, engine))


def _adp_env(cfg: RunConfig, inputs: dict) -> SearchEnv:
    return AdpEnv(inputs["graph"])


def _pp_train_env(cfg: RunConfig, inputs: dict) -> SearchEnv:
    return PipeTrainEnv(
        inputs["graph"],
        inputs["topo"],
        num_stages=cfg.stages,
        radius=cfg.radius,
        micro_batches=cfg.micro_batches,
        mem_per_device=cfg.mem_per_device,
    )


def _pp_infer_env(cfg: RunConfig, inputs: dict) -> SearchEnv:
    if cfg.stages > GRANULARITY:
        raise ConfigError(
            f"--stages {cfg.stages} needs {cfg.stages - 1} stage boundaries, more than the "
            f"{GRANULARITY - 1} of the {GRANULARITY}-point grid"
        )
    arrays, topo = inputs["arrays"], inputs["topo"]
    boundary_bands, cut_bands = infer_search_bands(arrays, topo, cfg.stages, cfg.radius)
    return PipeInferEnv(
        arrays,
        topo,
        num_stages=cfg.stages,
        micro_batches=cfg.micro_batches,
        allowed_boundaries=boundary_bands,
        allowed_cuts=cut_bands,
    )


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
        "micro_batch_size": plan.micro_batch_size,
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
        "mem_per_device": cfg.mem_per_device,
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
    # plan fields beyond task, graph, seed and episodes
    payload: Callable[[RunConfig, dict, Best], dict]
    # (summary field, terminal info key) of the plan's headline figure
    headline: tuple[str, str]
    wanted: str  # what a usable plan is, for the error message
    # the RunConfig fields the task reads, each with its value when unset
    defaults: Mapping[str, object]


# the flags every search reads; AgentConfig's defaults hold where a task sets no other value
_SEARCH_FLAGS = {"graph": None, "seed": 0, "log": None, **asdict(AgentConfig())}
_PARTITION_FLAGS = {**_SEARCH_FLAGS, "finetune": False, "lr": 0.0005}
_PIPE_FLAGS = {
    **_SEARCH_FLAGS, "topology": None, "stages": 2, "radius": 3, "micro_batches": 4,
    "epsilon_decay_iters": 10000,
}

SEARCH_TASKS: dict[str, SearchTask] = {
    "opp": SearchTask(
        ("graph",), _opp_env, _partition_payload,
        ("best_partitions", "partition_count"), "conflict-free strategy",
        {**_PARTITION_FLAGS, "out": "opp_plan.json", "episodes": 2000},
    ),
    "adp": SearchTask(
        ("graph",), _adp_env, _partition_payload,
        ("best_partitions", "partition_count"), "conflict-free strategy",
        {**_PARTITION_FLAGS, "out": "adp_plan.json", "episodes": 500, "epsilon_decay_iters": 500},
    ),
    "pp-train": SearchTask(
        ("graph", "topo"), _pp_train_env, _pp_train_payload,
        ("pipeline_length_s", "pipeline_length"), "memory-feasible plan",
        {**_PIPE_FLAGS, "out": "pp_train_plan.json", "episodes": 500, "mem_per_device": None},
    ),
    "pp-infer": SearchTask(
        ("arrays", "topo"), _pp_infer_env, _pp_infer_payload,
        ("pipeline_length_s", "pipeline_length"), "plan",
        {
            **_PIPE_FLAGS, "out": "pp_infer_plan.json", "episodes": 50, "micro_batches": 1,
            "dist": "uniform",
        },
    ),
}

# every task's flags, with the value each takes when left unset
FLAG_DEFAULTS: dict[str, Mapping[str, object]] = {
    **{name: task.defaults for name, task in SEARCH_TASKS.items()},
    "validate": {"plan": None, "graph": None, "topology": None},
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
    curve_path, summary_path = _artifact_paths(cfg.out)
    # checked before the search, which would otherwise fail only when it writes
    for path in filter(None, (cfg.out, cfg.log)):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path!r}: not a file in an existing directory")
    artifacts = [os.path.realpath(path) for path in (cfg.out, curve_path, summary_path)]
    logged = [os.path.realpath(cfg.log)] if cfg.log else []
    if logged and logged[0] in artifacts:
        raise ConfigError(f"--log {cfg.log!r} names the plan, its curve or its summary")
    for flag, path in (("--graph", cfg.graph), ("--topology", cfg.topology)):
        if path and os.path.realpath(path) in artifacts + logged:
            raise ConfigError(f"{flag} {path!r} names the plan, its curve, its summary or --log")
    phases = dict.fromkeys(PHASES, 0.0)
    clock = time.monotonic()
    inputs = resolve_inputs(cfg, task.inputs)
    # both pipeline tasks cost their plans on a topology
    topo = inputs.get("topo")
    if topo is not None and not 2 <= cfg.stages <= topo.num_devices:
        raise ConfigError(f"--stages {cfg.stages} is not in 2..{topo.num_devices}, the device count")
    clock = _lap(phases, "load_inputs", clock)
    runs_before = propagation_runs()
    env = task.env(cfg, inputs)
    clock = _lap(phases, "build_env", clock)
    config = AgentConfig(**{f.name: getattr(cfg, f.name) for f in fields(AgentConfig)})
    agent = DqnAgent(config, env.state_dim, env.num_actions, cfg.seed)
    curve = CurveWriter(curve_path)
    trace = TraceWriter(cfg.log) if cfg.log else None
    started = time.monotonic()
    try:
        best = train(env, agent, cfg.episodes, curve, trace)
        clock = _lap(phases, "train", started)
        if best is not None and cfg.finetune:
            stage2 = train(
                env, agent, cfg.episodes, curve, trace,
                reset=lambda: env.finetune_reset(best.info["strategy"]),
                episode_offset=cfg.episodes,
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
        "defaults": asdict(agent.config),
        field: best.info[key],
        "phase_s": phases,
    }
    if isinstance(env, PickEnv):
        summary["length_terms"] = length_breakdown(
            best.info["plan"], best.info["metrics"], env.cost_topology
        )
    else:
        # linkage extraction or feasibility runs, env steps and self-validation alike
        summary["propagations"] = propagation_runs() - runs_before
        summary["conflicts"] = env.conflicts
    write_json(summary_path, summary)
    logger.info("wrote %s (%s %.6g, episode %d)", cfg.out, field, best.info[key], best.episode)
    return EXIT_OK


# the plan fields that stand for a flag (validate loads the inputs by them),
# each with that flag's RunConfig field and its check on a JSON value
_PLAN_INPUTS = {
    "graph": ("graph", lambda v: type(v) is str),
    "topology": ("topology", lambda v: type(v) is str),
    "distribution": ("dist", lambda v: v in DISTRIBUTIONS),
    "seed": ("seed", lambda v: type(v) is int and v >= 0),
    "mem_per_device": ("mem_per_device", lambda v: type(v) in (int, float) and 0 < v < math.inf),
}


def _run_validate(cfg: RunConfig) -> int:
    if cfg.plan is None:
        raise ConfigError("validate needs --plan")
    payload = load_json(cfg.plan, ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError(f"plan {cfg.plan!r} is not a JSON object")
    name = payload.get("task")
    if not isinstance(name, str) or name not in SEARCH_TASKS:
        raise ConfigError(f"plan field 'task' is {name!r}, not one of {', '.join(SEARCH_TASKS)}")
    task = SEARCH_TASKS[name]
    # absent or null, a field takes its flag's default; --graph and --topology override it
    planned = {}
    for field, (flag, ok) in _PLAN_INPUTS.items():
        value = payload.get(field)
        if value is not None and not ok(value):
            raise ConfigError(f"plan field {field!r} is {value!r}, which --{flag.replace('_', '-')} would refuse")
        planned[flag] = getattr(cfg, flag) or (task.defaults.get(flag) if value is None else value)
    inputs = resolve_inputs(replace(cfg, **planned), task.inputs)
    ok, message = validate_payload(payload, **inputs)
    if ok:
        logger.info("plan %s is valid: %s", cfg.plan, message)
        return EXIT_OK
    logger.error("plan %s is invalid: %s", cfg.plan, message)
    return EXIT_INFEASIBLE


# -- entry point --------------------------------------------------------------


def _checked(convert: Callable[[str], float], ok: Callable[[float], bool], wanted: str):
    """An argparse type that refuses, before any work, a value ``ok`` rejects."""

    def parse(text: str) -> float:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {wanted}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type when convert fails
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "a count of at least 1")
_NATURAL = _checked(int, lambda v: v >= 0, "an integer of at least 0")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoplan",
        description="Search distributed execution plans for serialized computation graphs. "
        "Each flag's help ends with the tasks that read it and its value when unset.",
        # a flag left unset stays out of the namespace, so the task's default fills it
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--task",
        required=True,
        choices=list(FLAG_DEFAULTS),
        help="a plan search, or validate to re-check a plan file",
    )
    parser.add_argument("--graph", help="graph/profile file or bundled name")
    parser.add_argument("--topology", help="preset or JSON file; unset: the plan's, else configa")
    parser.add_argument("--stages", type=int, help="pipeline stage count K")
    parser.add_argument(
        "--radius", type=_NATURAL,
        help="pruning radius R: pp-train's device cuts lie within R devices of a server boundary, "
        "pp-infer's boundaries within R grid points of their band centres; radius 3's best pp-train "
        "plan on uniform_chain(128), configc, is 1.20x/1.25x/1.24x radius 31's at K=2/3/4",
    )
    parser.add_argument("--micro-batches", type=_COUNT, help="per global batch")
    parser.add_argument("--episodes", type=_COUNT, help="training episode budget")
    parser.add_argument("--seed", type=_NATURAL, help="seeds the agent and a generated environment")
    parser.add_argument("--out", help="plan output path")
    parser.add_argument("--finetune", action="store_true", help="run the backtrace stage")
    parser.add_argument("--log", help="episode trace JSONL path")
    parser.add_argument(
        "--dist", choices=DISTRIBUTIONS,
        help="distribution of the environment generated in place of a --graph profile",
    )
    parser.add_argument("--plan", help="plan JSON to check")
    parser.add_argument("--mem-per-device", type=_POSITIVE, help="memory budget in bytes")
    parser.add_argument("--lr", type=_POSITIVE, help="learning rate")
    parser.add_argument(
        "--epsilon-decay", dest="epsilon_decay_iters", type=_NATURAL,
        help="the decisions epsilon takes to decay",
    )
    for action in parser._actions:
        read_by = [f"{t}: {d[action.dest]}" for t, d in FLAG_DEFAULTS.items() if action.dest in d]
        if read_by:
            action.help += f" ({', '.join(read_by)})"
    return parser


def config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    """The flags given, over the task's defaults; a flag the task does not
    read is refused, before any input is loaded."""
    given = vars(args)
    defaults = FLAG_DEFAULTS[args.task]
    unread = [
        action.option_strings[0]
        for action in parser._actions
        if action.dest in given.keys() - defaults.keys() - {"task"}
    ]
    if unread:
        raise ConfigError(f"--task {args.task} does not read {', '.join(unread)}")
    if {"graph", "dist"} <= given.keys():
        raise ConfigError("--dist generates the profile that --graph would name; give one")
    return RunConfig(**{**defaults, **given})


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args, parser)
        return (_run_validate if cfg.task == "validate" else _run_search)(cfg)
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
