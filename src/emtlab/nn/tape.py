"""Reverse-mode automatic differentiation over matrix-valued nodes.

The graph is rebuilt dynamically on every forward pass: each operation
returns a Node holding a float64 2-D value, its parents, and a closure
that pushes the adjoint back to the parents.  backward() seeds the scalar
loss with 1, walks the graph in reverse topological order, and returns
each parameter's gradient: the sum of the adjoints of its leaves.

All values are 2-D matrices; scalars are 1x1.  Broadcasting follows numpy
rules, with adjoints summed back over broadcast axes.
"""

import numpy as np


class Node:
    __slots__ = ("value", "grad", "parents", "bprop", "param")

    def __init__(self, value, parents=(), bprop=None, param=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.bprop = bprop
        self.param = param


def constant(x) -> Node:
    """Wrap an array or scalar as a non-differentiable leaf."""
    return Node(np.atleast_2d(np.asarray(x, dtype=np.float64)))


def _accum(node, g):
    # The first adjoint is copied, which saves adding it into zeros.  It must
    # be ndarray.copy(), which is C-ordered even for a transposed g: a copy
    # in g's F order (np.array, np.copy) sends later matmuls down another
    # BLAS path and moves gradients in the last bit.
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


def _unbroadcast(g, shape):
    # sum the adjoint back over axes that were broadcast on the forward pass;
    # every value is 2-D, so only length-1 axes can have been broadcast
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Node, b: Node) -> Node:
    out = Node(a.value + b.value, (a, b))
    out.bprop = lambda g: (_accum(a, _unbroadcast(g, a.value.shape)),
                           _accum(b, _unbroadcast(g, b.value.shape)))
    return out


def sub(a: Node, b: Node) -> Node:
    out = Node(a.value - b.value, (a, b))
    out.bprop = lambda g: (_accum(a, _unbroadcast(g, a.value.shape)),
                           _accum(b, _unbroadcast(-g, b.value.shape)))
    return out


def mul(a: Node, b: Node) -> Node:
    out = Node(a.value * b.value, (a, b))
    out.bprop = lambda g: (_accum(a, _unbroadcast(g * b.value, a.value.shape)),
                           _accum(b, _unbroadcast(g * a.value, b.value.shape)))
    return out


def div(a: Node, b: Node) -> Node:
    out = Node(a.value / b.value, (a, b))

    def bprop(g):
        _accum(a, _unbroadcast(g / b.value, a.value.shape))
        _accum(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))
    out.bprop = bprop
    return out


def scale(a: Node, c) -> Node:
    """Multiply by a constant: a float, or an array of a's shape."""
    out = Node(a.value * c, (a,))
    out.bprop = lambda g: _accum(a, g * c)
    return out


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")
    out = Node(a.value @ b.value, (a, b))
    out.bprop = lambda g: (_accum(a, g @ b.value.T), _accum(b, a.value.T @ g))
    return out


def transpose(a: Node) -> Node:
    out = Node(a.value.T.copy(), (a,))
    out.bprop = lambda g: _accum(a, g.T)
    return out


def tanh(a: Node) -> Node:
    y = np.tanh(a.value)
    out = Node(y, (a,))
    out.bprop = lambda g: _accum(a, g * (1.0 - y * y))
    return out


def relu(a: Node) -> Node:
    y = np.maximum(a.value, 0.0)
    out = Node(y, (a,))
    out.bprop = lambda g: _accum(a, g * (a.value > 0.0))
    return out


def exp(a: Node) -> Node:
    y = np.exp(a.value)
    out = Node(y, (a,))
    out.bprop = lambda g: _accum(a, g * y)
    return out


def log(a: Node) -> Node:
    out = Node(np.log(a.value), (a,))
    out.bprop = lambda g: _accum(a, g / a.value)
    return out


def sqrt(a: Node) -> Node:
    y = np.sqrt(a.value)
    out = Node(y, (a,))
    out.bprop = lambda g: _accum(a, g / (2.0 * y))
    return out


def sum_all(a: Node) -> Node:
    out = Node(np.array([[a.value.sum()]]), (a,))
    out.bprop = lambda g: _accum(a, np.full_like(a.value, g[0, 0]))
    return out


def mean_axis(a: Node, axis: int) -> Node:
    n = a.value.shape[axis]
    out = Node(a.value.mean(axis=axis, keepdims=True), (a,))
    out.bprop = lambda g: _accum(a, np.broadcast_to(g / n, a.value.shape))
    return out


def softmax_rows(a: Node) -> Node:
    """Row-wise softmax; rows with -inf entries get exactly zero there."""
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Node(p, (a,))

    def bprop(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        _accum(a, p * (g - dot))
    out.bprop = bprop
    return out


def take(a: Node, index) -> Node:
    """Gather a.value[index]: rows for an index array, or an (n, 1) column
    of entries a[rows[i], cols[i]] for a (rows, cols) pair."""
    picked = a.value[index]
    out = Node(picked.reshape(-1, 1) if picked.ndim == 1 else picked, (a,))

    def bprop(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        np.add.at(a.grad, index, g.reshape(picked.shape))
    out.bprop = bprop
    return out


def concat(nodes, axis: int) -> Node:
    """Join a sequence of nodes along an axis: 0 stacks rows, 1 places
    columns side by side."""
    ends = np.cumsum([n.value.shape[axis] for n in nodes])[:-1]
    out = Node(np.concatenate([n.value for n in nodes], axis=axis), tuple(nodes))
    out.bprop = lambda g: [_accum(n, part) for n, part
                           in zip(nodes, np.split(g, ends, axis=axis))]
    return out


def clip(a: Node, lo: float, hi: float) -> Node:
    """Clamp values; adjoint passes through only inside [lo, hi]."""
    y = np.clip(a.value, lo, hi)
    out = Node(y, (a,))
    out.bprop = lambda g: _accum(a, g * ((a.value >= lo) & (a.value <= hi)))
    return out


def minimum(a: Node, b: Node) -> Node:
    """Elementwise min; adjoint follows the selected branch (ties go to a)."""
    mask = a.value <= b.value
    out = Node(np.where(mask, a.value, b.value), (a, b))
    out.bprop = lambda g: (_accum(a, _unbroadcast(g * mask, a.value.shape)),
                           _accum(b, _unbroadcast(g * ~mask, b.value.shape)))
    return out


def _topo_order(root):
    # a Node hashes and compares by identity, so `seen` holds the nodes
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node) -> dict:
    """Fill adjoints for every ancestor of a scalar loss node; returns
    {parameter name: gradient}, each the sum of that parameter's leaf
    adjoints added in forward order to 0.0 (no leaf on the graph, no entry).
    A gradient is summed in place in its first leaf's adjoint buffer.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.bprop is not None and node.grad is not None:
            node.bprop(node.grad)
    grads = {}
    for node in order:
        if node.param is not None and node.grad is not None:
            if node.param in grads:
                grads[node.param] += node.grad
            else:   # adding 0.0 turns -0.0 into 0.0, as a zero-filled sum does
                grads[node.param] = np.add(node.grad, 0.0, out=node.grad)
    return grads
