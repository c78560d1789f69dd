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
