"""Linkage groups: which dims a single sharding decision drags along.

For every candidate dim and for both decisions (partition / replicate), the
dim is seeded alone onto the pinned base state of one propagation engine
and propagated.  The candidate dims that come out decided form the dim's
linkage group for that decision.  Group sizes drive the decision order
during search: dims whose decisions settle many other dims are decided
first, which shortens episodes considerably.

Each trigger is a ``PropagationEngine.trial``: it seeds onto the engine's
one working copy of the base state in place and then restores only the
rows it changed, conflict or not.  Extraction therefore costs the rows the
triggers touch, not a copy of the whole state per trigger, and grows
linearly with the graph when the groups stay small.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

from autoplan.ir import DimIndex, HloGraph
from autoplan.sharding import RULE_VERSION, DimStatus, Outcome, PropagationEngine

logger = logging.getLogger(__name__)

Trigger = tuple[DimIndex, DimStatus]


@dataclass(frozen=True)
class LinkageGroup:
    """Candidate dims decided as a consequence of one trigger decision.

    The trigger itself is not part of ``implied``.  ``infeasible`` marks
    triggers whose lone seed already conflicts; their group is empty.
    """

    trigger: Trigger
    implied: tuple[tuple[DimIndex, DimStatus], ...]
    infeasible: bool = False

    @property
    def size(self) -> int:
        return len(self.implied)


def extract_linkage_groups(
    graph: HloGraph, dims: Sequence[DimIndex]
) -> dict[Trigger, LinkageGroup]:
    """Propagate every (dim, status) trigger alone and record what it decides."""
    engine = PropagationEngine(graph, candidates=dims)
    groups: dict[Trigger, LinkageGroup] = {}
    for di in dims:
        for status in (DimStatus.PARTITIONED, DimStatus.REPLICATED):
            trigger = (di, status)
            result = engine.trial({di: status})
            if result.outcome is Outcome.CONFLICT:
                groups[trigger] = LinkageGroup(trigger=trigger, implied=(), infeasible=True)
            else:
                groups[trigger] = LinkageGroup(trigger=trigger, implied=result.newly_decided)
    return groups


def sorted_decision_order(groups: Mapping[Trigger, LinkageGroup]) -> list[DimIndex]:
    """Dims sorted descending by their larger linkage group, ties by flat index."""
    dims = sorted({t[0] for t in groups}, key=lambda d: d.flat_index)

    def _max_size(di: DimIndex) -> int:
        sizes = [
            groups[(di, status)].size
            for status in (DimStatus.PARTITIONED, DimStatus.REPLICATED)
            if (di, status) in groups
        ]
        return max(sizes, default=0)

    return sorted(dims, key=lambda d: (-_max_size(d), d.flat_index))


def _dim_to_list(di: DimIndex) -> list[int]:
    return [di.flat_index, di.instruction_id, di.dim]


def _dim_from_list(raw: Sequence[int]) -> DimIndex:
    return DimIndex(flat_index=raw[0], instruction_id=raw[1], dim=raw[2])


def save_cache(path: str, graph: HloGraph, groups: Mapping[Trigger, LinkageGroup]) -> None:
    """Serialize groups keyed by the graph content hash and rule version."""
    payload = {
        "graph_hash": graph.content_hash(),
        "rule_version": RULE_VERSION,
        "groups": [
            {
                "trigger": _dim_to_list(g.trigger[0]) + [int(g.trigger[1])],
                "implied": [_dim_to_list(di) + [int(st)] for di, st in g.implied],
                "infeasible": g.infeasible,
            }
            for g in groups.values()
        ],
    }
    # json.dumps takes the C encoder, which json.dump's chunked writes do not
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_cache(path: str, graph: HloGraph) -> dict[Trigger, LinkageGroup] | None:
    """Load cached groups, or None when missing or built for another graph.

    A cache written under other propagation rules (``rule_version`` missing
    or different) is ignored too: its groups may mark triggers feasible that
    conflict today, which would change the decision order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("graph_hash") != graph.content_hash():
        logger.info("linkage cache at %s does not match the graph, ignoring", path)
        return None
    if payload.get("rule_version") != RULE_VERSION:
        logger.info("linkage cache at %s was built under other propagation rules, ignoring", path)
        return None
    groups: dict[Trigger, LinkageGroup] = {}
    for raw in payload.get("groups", []):
        t = raw["trigger"]
        trigger = (_dim_from_list(t), DimStatus(t[3]))
        implied = tuple((_dim_from_list(e), DimStatus(e[3])) for e in raw["implied"])
        groups[trigger] = LinkageGroup(trigger=trigger, implied=implied, infeasible=raw["infeasible"])
    return groups
