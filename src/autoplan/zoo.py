"""Bundled example graphs and cost profiles.

Small hand-built computations whose best sharding or pipeline plans are
known exactly, so search quality can be measured against ground truth.
``tests/test_zoo.py`` checks each optimum: by exhaustive enumeration for
``attention_block`` and ``vgg_classifier``, by showing that no further dim
can join the seven partitions of ``t5_block`` (its 18 dims are too many to
enumerate), and by brute force over the pruned search bands for
``bert48_profile``:

* ``attention_block``: one self-attention block with layer norm and a
  residual; the unique maximal sharding partitions the q/k/v projections on
  their output dim and the output projection on its input dim.
* ``t5_block``: attention plus an MLP with biases and a second layer norm;
  the maximum adds the MLP triple (first weight out-dim, its bias, second
  weight in-dim) for seven partitioned dims.
* ``vgg_classifier``: a one-layer classifier head with a normalized,
  class-weighted squared loss; batch partitioning of the two data inputs is
  the unique maximum for the data-parallel task.
* ``uniform_chain``: a chain of equal-cost unary ops for pipeline tests.
* ``bert48_profile``: a fine-grained cost profile whose coarsened arrays
  have compute quarters and activation dips exactly at stage boundaries
  (34, 66, 98), with device cuts (8, 16, 24) on the four-server preset.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from autoplan.dataproc import ProfileArrays
from autoplan.ir import HloGraph, Instruction, TensorShape

_DOT_COST = 1.0
_ELEMENT_COST = 0.1

# the extents of one graph differ pairwise, which keeps its dim pairing unambiguous
_SEQ, _HIDDEN, _FFN = 8, 16, 32  # attention_block, t5_block
_BATCH, _FEATURES, _CLASSES = 32, 64, 10  # vgg_classifier
_CHAIN_SHAPE = (8, 8)  # uniform_chain
_PROFILE_MULTIPLE = 10  # bert48_profile entries per coarse index


class _Builder:
    """Sequential-id instruction list with a one-line add per op."""

    def __init__(self) -> None:
        self.instructions: list[Instruction] = []

    def add(
        self,
        name: str,
        opcode: str,
        shape: Sequence[int],
        operands: Sequence[int] = (),
        cost: float | None = None,
    ) -> int:
        ins_id = len(self.instructions)
        self.instructions.append(
            Instruction(
                id=ins_id,
                name=name,
                opcode=opcode,
                operand_ids=tuple(operands),
                shape=TensorShape(tuple(shape)),
                compute_cost_ms=cost,
            )
        )
        return ins_id

    def graph(self, trainable: Sequence[str] = ()) -> HloGraph:
        return HloGraph(self.instructions, trainable)


def _layer_norm(b: _Builder, x: int, scale: int, bias: int, tag: str) -> int:
    """Mean-subtract layer norm; ties the feature dim of x to replication.

    The mean is broadcast back along a fresh feature dim, which pins that
    dim (and through the elementwise chain, x's feature dim and the scale
    and bias vectors) to replicated status.
    """
    s, h = _SEQ, _HIDDEN
    mean = b.add(f"{tag}_mean", "reduce", (s,), [x], _ELEMENT_COST)
    mean_b = b.add(f"{tag}_mean_b", "broadcast", (s, h), [mean], _ELEMENT_COST)
    centered = b.add(f"{tag}_centered", "subtract", (s, h), [x, mean_b], _ELEMENT_COST)
    scale_b = b.add(f"{tag}_scale_b", "broadcast", (s, h), [scale], _ELEMENT_COST)
    scaled = b.add(f"{tag}_scaled", "multiply", (s, h), [centered, scale_b], _ELEMENT_COST)
    bias_b = b.add(f"{tag}_bias_b", "broadcast", (s, h), [bias], _ELEMENT_COST)
    return b.add(f"{tag}_out", "add", (s, h), [scaled, bias_b], _ELEMENT_COST)


def _attention(b: _Builder, x: int) -> int:
    """Self-attention with layer norm and residual; returns the output id.

    Expects the parameter ids laid down by the caller in this order:
    wq, wk, wv, wo, ln_scale, ln_bias starting at id 1.
    """
    wq, wk, wv, wo, ln_scale, ln_bias = 1, 2, 3, 4, 5, 6
    s, h = _SEQ, _HIDDEN
    ln = _layer_norm(b, x, ln_scale, ln_bias, "ln1")
    q = b.add("q", "dot", (s, h), [ln, wq], _DOT_COST)
    k = b.add("k", "dot", (s, h), [ln, wk], _DOT_COST)
    v = b.add("v", "dot", (s, h), [ln, wv], _DOT_COST)
    kt = b.add("kt", "transpose", (h, s), [k], _ELEMENT_COST)
    scores = b.add("scores", "dot", (s, s), [q, kt], _DOT_COST)
    scores_e = b.add("scores_exp", "exp", (s, s), [scores], _ELEMENT_COST)
    ssum = b.add("scores_sum", "reduce", (s,), [scores_e], _ELEMENT_COST)
    ssum_b = b.add("scores_sum_b", "broadcast", (s, s), [ssum], _ELEMENT_COST)
    attnw = b.add("attn_weights", "divide", (s, s), [scores_e, ssum_b], _ELEMENT_COST)
    context = b.add("context", "dot", (s, h), [attnw, v], _DOT_COST)
    attn_out = b.add("attn_out", "dot", (s, h), [context, wo], _DOT_COST)
    return b.add("res1", "add", (s, h), [x, attn_out], _ELEMENT_COST)


def attention_block() -> HloGraph:
    """Self-attention block with six trainable variables.

    Ten candidate dims; the unique maximal conflict-free sharding
    partitions wq.1, wk.1, wv.1 and wo.0 (four partitions).  The layer-norm
    vectors and every other weight dim are forced replicated by the
    mean-subtraction broadcast, the softmax normalization and the residual.
    """
    s, h = _SEQ, _HIDDEN
    b = _Builder()
    x = b.add("x", "parameter", (s, h))
    for name in ("wq", "wk", "wv", "wo"):
        b.add(name, "parameter", (h, h))
    b.add("ln1_scale", "parameter", (h,))
    b.add("ln1_bias", "parameter", (h,))
    res1 = _attention(b, x)
    b.add("root", "tuple", (s, h), [res1])
    return b.graph(["wq", "wk", "wv", "wo", "ln1_scale", "ln1_bias"])


def t5_block() -> HloGraph:
    """Attention plus a two-layer MLP, twelve trainable variables.

    Eighteen candidate dims in three free groups: {wq.1, wk.1}, {wv.1,
    wo.0} and {w1.1, b1.0, w2.0}; the unique maximum partitions all three
    groups (seven partitions).  The MLP group is the largest linkage group,
    so it heads the decision order.
    """
    b = _Builder()
    s, h, f = _SEQ, _HIDDEN, _FFN
    x = b.add("x", "parameter", (s, h))
    for name in ("wq", "wk", "wv", "wo"):
        b.add(name, "parameter", (h, h))
    b.add("ln1_scale", "parameter", (h,))
    b.add("ln1_bias", "parameter", (h,))
    w1 = b.add("w1", "parameter", (h, f))
    b1 = b.add("b1", "parameter", (f,))
    w2 = b.add("w2", "parameter", (f, h))
    ln2_scale = b.add("ln2_scale", "parameter", (h,))
    ln2_bias = b.add("ln2_bias", "parameter", (h,))
    b2 = b.add("b2", "parameter", (h,))
    res1 = _attention(b, x)
    ln2 = _layer_norm(b, res1, ln2_scale, ln2_bias, "ln2")
    h1 = b.add("mlp_h1", "dot", (s, f), [ln2, w1], _DOT_COST)
    b1_b = b.add("mlp_b1_b", "broadcast", (s, f), [b1], _ELEMENT_COST)
    h1b = b.add("mlp_h1b", "add", (s, f), [h1, b1_b], _ELEMENT_COST)
    h1a = b.add("mlp_act", "tanh", (s, f), [h1b], _ELEMENT_COST)
    h2 = b.add("mlp_h2", "dot", (s, h), [h1a, w2], _DOT_COST)
    b2_b = b.add("mlp_b2_b", "broadcast", (s, h), [b2], _ELEMENT_COST)
    h2b = b.add("mlp_h2b", "add", (s, h), [h2, b2_b], _ELEMENT_COST)
    res2 = b.add("res2", "add", (s, h), [res1, h2b], _ELEMENT_COST)
    b.add("root", "tuple", (s, h), [res2])
    return b.graph(
        [
            "wq",
            "wk",
            "wv",
            "wo",
            "ln1_scale",
            "ln1_bias",
            "w1",
            "b1",
            "w2",
            "ln2_scale",
            "ln2_bias",
            "b2",
        ]
    )


def vgg_classifier() -> HloGraph:
    """Classifier head with a normalized, class-weighted squared loss.

    Four candidate inputs for the data-parallel task: the feature batch
    ``arg0.1``, the label batch ``arg1.2`` and two per-class vectors.  The
    unique maximal sharding partitions exactly the two batch dims; the
    class vectors only ever meet the data path after the batch dim has been
    reduced away, which pins them to replication.
    """
    n, p, c = _BATCH, _FEATURES, _CLASSES
    b = _Builder()
    x = b.add("arg0.1", "parameter", (n, p))
    labels = b.add("arg1.2", "parameter", (n, c))
    class_weights = b.add("arg2.3", "parameter", (c,))
    class_prior = b.add("arg3.4", "parameter", (c,))
    w1 = b.add("w1", "parameter", (p, c))
    logits = b.add("logits", "dot", (n, c), [x, w1], _DOT_COST)
    diff = b.add("diff", "subtract", (n, c), [logits, labels], _ELEMENT_COST)
    sq = b.add("sq", "multiply", (n, c), [diff, diff], _ELEMENT_COST)
    rowsum = b.add("rowsum", "reduce", (n,), [sq], _ELEMENT_COST)
    rbc = b.add("rowsum_b", "broadcast", (n, c), [rowsum], _ELEMENT_COST)
    normed = b.add("normed", "divide", (n, c), [sq, rbc], _ELEMENT_COST)
    colsum = b.add("colsum", "reduce", (c,), [normed], _ELEMENT_COST)
    weighted = b.add("weighted", "multiply", (c,), [colsum, class_weights], _ELEMENT_COST)
    shifted = b.add("shifted", "subtract", (c,), [weighted, class_prior], _ELEMENT_COST)
    loss = b.add("loss", "reduce", (), [shifted], _ELEMENT_COST)
    b.add("root", "tuple", (), [loss])
    return b.graph(["w1"])


def uniform_chain(length: int = 64, cost: float = 1.0) -> HloGraph:
    """A chain of ``length`` equal-cost unary ops, no trainable variables.

    The flat cost curve makes proportional device splits land exactly on
    the positions whose prefix share matches the device share, which keeps
    the pruned pivot sets small and predictable.
    """
    if length < 2:
        raise ValueError("the chain needs at least two ops")
    b = _Builder()
    prev = b.add("x", "parameter", _CHAIN_SHAPE)
    for i in range(length):
        prev = b.add(f"op{i:03d}", "exp", _CHAIN_SHAPE, [prev], cost)
    b.add("root", "tuple", _CHAIN_SHAPE, [prev])
    return b.graph()


def bert48_profile() -> ProfileArrays:
    """Fine-grained cost profile with engineered coarse-level structure.

    With 128 x ``_PROFILE_MULTIPLE`` entries, the coarsened compute
    prefix hits exact quarters at coarse indices 33, 65 and 97, and the
    activation curve dips sharply at exactly those indices.  On a
    four-server topology the best four-stage plan is therefore the boundary
    triple (34, 66, 98) with device cuts (8, 16, 24): any boundary off a
    dip pays two orders of magnitude more transfer, and any device cut off
    a server boundary routes a gradient allreduce over the slow link.
    """
    g = _PROFILE_MULTIPLE
    n = 128 * g
    # right-endpoint sample points for coarse indices 33/65/97 are the fine
    # positions 34g-1, 66g-1, 98g-1; the segments between them carry one
    # compute quarter each
    edges = [0, 34 * g, 66 * g, 98 * g, n]
    c: list[float] = []
    w: list[float] = []
    for lo, hi in zip(edges, edges[1:]):
        rate = 1.0 / (hi - lo)
        c.extend([rate] * (hi - lo))
        w.extend([rate] * (hi - lo))
    dip_positions = {34 * g - 1, 66 * g - 1, 98 * g - 1}
    a = [
        0.01 if i in dip_positions else 0.9 + 0.1 * ((i * 7919) % 97) / 96.0
        for i in range(n)
    ]
    names = tuple(f"op{i:05d}" for i in range(n))
    return ProfileArrays(
        c=np.asarray(c), a=np.asarray(a), w=np.asarray(w), names=names
    )


GRAPHS = {
    "attention_block": attention_block,
    "t5_block": t5_block,
    "vgg_classifier": vgg_classifier,
    "uniform_chain": uniform_chain,
}

PROFILES = {
    "bert48_profile": bert48_profile,
}


def zoo_graph(name: str) -> HloGraph:
    try:
        return GRAPHS[name]()
    except KeyError:
        raise KeyError(f"unknown bundled graph {name!r}; choose from {sorted(GRAPHS)}") from None


def zoo_profile(name: str) -> ProfileArrays:
    try:
        return PROFILES[name]()
    except KeyError:
        raise KeyError(
            f"unknown bundled profile {name!r}; choose from {sorted(PROFILES)}"
        ) from None
