"""Network building blocks: dense layers, single-head attention, and
batch normalization, all composed from tape primitives so gradients come
for free."""

import numpy as np

from . import tape
from .params import ParameterStore
from .tape import Node

BN_EPS = 1e-5


def dense(store: ParameterStore, layer: str, x: Node) -> Node:
    """y = x @ W + b with parameters {layer}.W and {layer}.b."""
    w = store.leaf(f"{layer}.W")
    b = store.leaf(f"{layer}.b")
    if x.value.shape[-1] != w.value.shape[0]:
        raise ValueError(
            f"dense '{layer}': input has {x.value.shape[-1]} columns, "
            f"weights expect {w.value.shape[0]}")
    return tape.add(tape.matmul(x, w), b)


def single_head_attention(store: ParameterStore, x: Node, prefix: str):
    """Scaled dot-product attention over the row dimension.

    Returns (scores, output): scores[j, k] = (q_j . k_k) / sqrt(width) kept
    pre-softmax so callers can reuse them for routing, and
    output = rowsoftmax(scores) @ v.  Projections are {prefix}.Wq/Wk/Wv.
    """
    if x.value.shape[-2] < 2:
        raise ValueError("attention needs at least 2 rows")
    q = tape.matmul(x, store.leaf(f"{prefix}.Wq"))
    k = tape.matmul(x, store.leaf(f"{prefix}.Wk"))
    v = tape.matmul(x, store.leaf(f"{prefix}.Wv"))
    width = q.value.shape[-1]
    scores = tape.scale(tape.matmul(q, tape.transpose(k)), 1.0 / np.sqrt(width))
    out = tape.matmul(tape.softmax_rows(scores), v)
    return scores, out


def batch_norm(store: ParameterStore, x: Node, prefix: str) -> Node:
    """Normalize each column over the rows, then apply scale and offset.

    Current-batch statistics are always used; the rows are the batch.
    """
    if x.value.shape[-2] < 2:
        raise ValueError("batch_norm needs at least 2 rows")
    mu = tape.mean_axis(x, axis=-2)
    centered = tape.sub(x, mu)
    var = tape.mean_axis(tape.mul(centered, centered), axis=-2)
    normed = tape.div(centered, tape.sqrt(tape.add(var, tape.constant(BN_EPS))))
    gamma = store.leaf(f"{prefix}.gamma")
    beta = store.leaf(f"{prefix}.beta")
    return tape.add(tape.mul(normed, gamma), beta)
