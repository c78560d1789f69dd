"""Timing wrappers installed from outside the program, for the traced run.

A span records one call of a wrapped function: its duration and, as self
time, the duration minus the part covered by nested spans.  A counter only
counts calls.  Each wrapper replaces the name its caller looks up, for
example ``autoplan.envs.propagate`` rather than ``autoplan.sharding.propagate``,
because modules bind imported functions at import time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    durations: list[float] = field(default_factory=list)
    self_time: float = 0.0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total(self) -> float:
        return sum(self.durations)

    @property
    def p50(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


class Tracer:
    """In-memory span and counter store, single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # a span whose function was not found reads as never called
        self.spans: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: Counter[str] = Counter()
        # open spans as [name, time covered by finished child spans]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        stats = self.spans[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._clock() - start
                self._stack.pop()
                stats.durations.append(duration)
                stats.self_time += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable, inside: str | None = None) -> Callable:
        """Count calls; with ``inside``, only calls made directly within that span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or (self._stack and self._stack[-1][0] == inside):
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace ``module:attr`` or ``module:Class.attr``; False if it does not exist."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class EpisodeOutcomes:
    """Counts finished episodes and those that ended in a conflict."""

    def __init__(self) -> None:
        self.done = 0
        self.conflicts = 0

    def __call__(self, result) -> None:
        if result.done:
            self.done += 1
            self.conflicts += bool(result.info.get("conflict", False))


# (span name, names the callers look up)
SPANS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("ir.load_graph", ("autoplan.cli:load_graph",)),
    ("linkage.extract", ("autoplan.cli:extract_linkage_groups",)),
    ("sharding.propagate", ("autoplan.envs:propagate", "autoplan.cli:propagate")),
    ("envs.reset", (
        "autoplan.envs:PartitionSearchEnv.reset",
        "autoplan.envs:PipeTrainEnv.reset",
        "autoplan.envs:PipeInferEnv.reset",
    )),
    ("pipecost.stage_metrics", ("autoplan.envs:stage_metrics", "autoplan.cli:stage_metrics")),
    ("pipecost.pipeline_length", ("autoplan.envs:pipeline_length", "autoplan.cli:pipeline_length")),
    ("agent.act", ("autoplan.agent:DqnAgent.act",)),
    ("agent.learn", ("autoplan.agent:DqnAgent.learn",)),
    ("agent.adam", ("autoplan.agent:AdamOptimizer.step",)),
    ("agent.replay_sample", ("autoplan.agent:PrioritizedReplayBuffer.sample",)),
    ("agent.replay_push", ("autoplan.agent:PrioritizedReplayBuffer.push",)),
    ("dataproc.build_arrays", ("autoplan.cli:build_environment_arrays",)),
    ("cli.curve_write", ("autoplan.cli:CurveWriter.write",)),
    ("cli.validate", ("autoplan.cli:validate_payload",)),
)

STEP_TARGETS = (
    "autoplan.envs:PartitionSearchEnv.step",
    "autoplan.envs:PipeTrainEnv.step",
    "autoplan.envs:PipeInferEnv.step",
)

# (counter name, names the callers look up, span the call must be made in)
COUNTERS: tuple[tuple[str, tuple[str, ...], str | None], ...] = (
    ("sharding.engine_builds", ("autoplan.sharding:PropagationEngine.__init__",), None),
    ("linkage.triggers", ("autoplan.sharding:PropagationEngine.run",), "linkage.extract"),
    ("topology.allreduce", ("autoplan.envs:allreduce_time", "autoplan.pipecost:allreduce_time"), None),
    ("topology.transfer", ("autoplan.envs:transfer_time", "autoplan.pipecost:transfer_time"), None),
    ("agent.forward", ("autoplan.agent:QNetwork.forward_cached",), "agent.learn"),
)


def install(tracer: Tracer, outcomes: EpisodeOutcomes) -> list[str]:
    """Wrap every target that exists; returns the targets that were missing."""
    missing = []
    for name, targets in SPANS:
        for target in targets:
            if not tracer.patch(target, lambda fn, name=name: tracer.span(name, fn)):
                missing.append(target)
    for target in STEP_TARGETS:
        if not tracer.patch(target, lambda fn: tracer.span("envs.step", fn, outcomes)):
            missing.append(target)
    for name, targets, inside in COUNTERS:
        for target in targets:
            if not tracer.patch(
                target, lambda fn, name=name, inside=inside: tracer.counter(name, fn, inside)
            ):
                missing.append(target)
    return missing
