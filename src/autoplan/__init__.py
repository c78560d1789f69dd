"""Search for distributed execution plans over HLO-like computation graphs.

The package covers three plan-search tasks driven by a shared DQN agent:

* operator partitioning (``opp``): decide, per tensor dimension, whether a
  trainable variable is split across all devices or replicated; the
  non-trainable graph inputs stay replicated,
* auto data parallelism (``adp``): the same decision restricted to the
  non-trainable graph inputs; the trainable variables stay replicated,
* pipeline planning (``pp-train`` / ``pp-infer``): cut the forward graph
  into stages and assign device groups.
"""

from __future__ import annotations

from autoplan.ir import (
    DimIndex,
    GraphError,
    GraphValidationError,
    HloGraph,
    Instruction,
    TensorShape,
    decision_dims,
    forward_subgraph,
    load_graph,
)
from autoplan.sharding import DimStatus, PropagationResult, propagate
from autoplan.topology import DeviceTopology, allreduce_time, transfer_time

__version__ = "0.1.0"

__all__ = [
    "DimIndex",
    "DimStatus",
    "DeviceTopology",
    "GraphError",
    "GraphValidationError",
    "HloGraph",
    "Instruction",
    "PropagationResult",
    "TensorShape",
    "allreduce_time",
    "decision_dims",
    "forward_subgraph",
    "load_graph",
    "propagate",
    "transfer_time",
    "__version__",
]
