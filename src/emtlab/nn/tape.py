"""Reverse-mode automatic differentiation over matrix-valued nodes.

The graph is rebuilt dynamically on every forward pass: each operation
returns a Node holding a float64 value, its parents, and a closure
that adds the parents' shares of the node's adjoint to an adjoint table.
backward() seeds the scalar loss with 1 in a table of its own, walks the
graph in reverse topological order, and returns each parameter's
gradient: the sum of the adjoints of its leaves.  The graph keeps no
adjoints, so differentiating it again gives the same gradients.  A
constant leaf, a node with neither parents nor a parameter, gets no
adjoint from add, sub or matmul's left operand, where the policy and the
PPO loss pass one: nothing would read it, so its share is not computed.

All values are 2-D matrices, scalars 1x1, or stacks of T such matrices of
shape (T, rows, cols), on which every op acts item by item: matmul and
transpose on the last two axes, sum_all, mean_axis, softmax_rows and take
within each item.  Broadcasting follows numpy rules, with adjoints summed
back over broadcast axes.  A 2-D value broadcast over a stack, such as a
parameter, gets one adjoint: the items' adjoints added from the last to
the first, the order in which backward() would add the adjoints of T
separate leaves, so a stacked graph gives the gradients of T 2-D graphs
bit for bit.
"""

import numpy as np


class Node:
    __slots__ = ("value", "parents", "bprop", "param")

    def __init__(self, value, parents=(), bprop=None, param=None):
        self.value = value
        self.parents = parents
        self.bprop = bprop
        self.param = param


def constant(x) -> Node:
    """Wrap an array or scalar as a non-differentiable leaf."""
    return Node(np.atleast_2d(np.asarray(x, dtype=np.float64)))


def _wants(node):
    # a constant leaf (no parents, no parameter) passes its adjoint on to
    # nothing, so the ops that are given one skip computing its share
    return node.parents or node.param is not None


def _accum(adj, node, g):
    # The first adjoint is copied, which saves adding it into zeros.  It must
    # be ndarray.copy(), which is C-ordered even for a transposed g: a copy
    # in g's F order (np.array, np.copy) sends later matmuls down another
    # BLAS path and moves gradients in the last bit.
    if node in adj:
        adj[node] += g
    else:
        adj[node] = g.copy()


def _unbroadcast(g, shape):
    # sum the adjoint back over axes that were broadcast on the forward pass:
    # each item's length-1 axes first, then the items of a stack that a 2-D
    # value was broadcast over, last to first from a copy of the last; a
    # single reduce over the items adds them first to last, or pairwise
    lead = g.ndim - len(shape)
    for axis, n in enumerate(shape, start=lead):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    if lead:
        total = g[-1].copy()
        for item in g[-2::-1]:
            total += item
        g = total
    return g


def add(a: Node, b: Node) -> Node:
    out = Node(a.value + b.value, (a, b))

    def bprop(g, adj):
        if _wants(a):
            _accum(adj, a, _unbroadcast(g, a.value.shape))
        if _wants(b):
            _accum(adj, b, _unbroadcast(g, b.value.shape))
    out.bprop = bprop
    return out


def sub(a: Node, b: Node) -> Node:
    out = Node(a.value - b.value, (a, b))

    def bprop(g, adj):
        if _wants(a):
            _accum(adj, a, _unbroadcast(g, a.value.shape))
        if _wants(b):
            _accum(adj, b, _unbroadcast(-g, b.value.shape))
    out.bprop = bprop
    return out


def mul(a: Node, b: Node) -> Node:
    out = Node(a.value * b.value, (a, b))
    out.bprop = lambda g, adj: (
        _accum(adj, a, _unbroadcast(g * b.value, a.value.shape)),
        _accum(adj, b, _unbroadcast(g * a.value, b.value.shape)))
    return out


def div(a: Node, b: Node) -> Node:
    out = Node(a.value / b.value, (a, b))

    def bprop(g, adj):
        _accum(adj, a, _unbroadcast(g / b.value, a.value.shape))
        _accum(adj, b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))
    out.bprop = bprop
    return out


def scale(a: Node, c) -> Node:
    """Multiply by a constant: a float, or an array of a's shape."""
    out = Node(a.value * c, (a,))
    out.bprop = lambda g, adj: _accum(adj, a, g * c)
    return out


def matmul(a: Node, b: Node) -> Node:
    out = Node(a.value @ b.value, (a, b))

    def bprop(g, adj):
        if _wants(a):
            _accum(adj, a, g @ b.value.swapaxes(-1, -2))
        _accum(adj, b, _unbroadcast(a.value.swapaxes(-1, -2) @ g, b.value.shape))
    out.bprop = bprop
    return out


def transpose(a: Node) -> Node:
    out = Node(a.value.swapaxes(-1, -2).copy(), (a,))
    out.bprop = lambda g, adj: _accum(adj, a, g.swapaxes(-1, -2))
    return out


def reshape(a: Node, shape) -> Node:
    out = Node(a.value.reshape(shape), (a,))
    out.bprop = lambda g, adj: _accum(adj, a, g.reshape(a.value.shape))
    return out


def tanh(a: Node) -> Node:
    y = np.tanh(a.value)
    out = Node(y, (a,))
    out.bprop = lambda g, adj: _accum(adj, a, g * (1.0 - y * y))
    return out


def relu(a: Node) -> Node:
    y = np.maximum(a.value, 0.0)
    out = Node(y, (a,))
    out.bprop = lambda g, adj: _accum(adj, a, g * (a.value > 0.0))
    return out


def exp(a: Node) -> Node:
    y = np.exp(a.value)
    out = Node(y, (a,))
    out.bprop = lambda g, adj: _accum(adj, a, g * y)
    return out


def log(a: Node) -> Node:
    out = Node(np.log(a.value), (a,))
    out.bprop = lambda g, adj: _accum(adj, a, g / a.value)
    return out


def sqrt(a: Node) -> Node:
    y = np.sqrt(a.value)
    out = Node(y, (a,))
    out.bprop = lambda g, adj: _accum(adj, a, g / (2.0 * y))
    return out


def sum_all(a: Node) -> Node:
    """Sum of all entries: 1x1 for a 2-D value, (T, 1, 1) for a stack."""
    v = a.value
    out = Node(v.reshape(v.shape[:-2] + (-1,)).sum(axis=-1)[..., None, None], (a,))
    out.bprop = lambda g, adj: _accum(adj, a, np.broadcast_to(g, v.shape))
    return out


def mean_axis(a: Node, axis: int) -> Node:
    n = a.value.shape[axis]
    out = Node(a.value.mean(axis=axis, keepdims=True), (a,))
    out.bprop = lambda g, adj: _accum(adj, a, np.broadcast_to(g / n, a.value.shape))
    return out


def softmax_rows(a: Node) -> Node:
    """Row-wise softmax; rows with -inf entries get exactly zero there."""
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Node(p, (a,))

    def bprop(g, adj):
        dot = (g * p).sum(axis=-1, keepdims=True)
        _accum(adj, a, p * (g - dot))
    out.bprop = bprop
    return out


def take(a: Node, index) -> Node:
    """Gather from a.value: rows for an index array, or an (n, 1) column of
    entries a[rows[i], cols[i]] for a (rows, cols) pair.  On a stack the
    indices are per item, arrays of shape (T, n) or broadcasting to it."""
    entries = isinstance(index, tuple)
    items = (np.arange(len(a.value))[:, None],) if a.value.ndim == 3 else ()
    index = items + (index if entries else (index,))
    picked = a.value[index]
    out = Node(picked[..., None] if entries else picked, (a,))

    def bprop(g, adj):
        # np.add.at in place: a dense sum would reorder repeated indices' adds
        if a not in adj:
            adj[a] = np.zeros_like(a.value)
        np.add.at(adj[a], index, g.reshape(picked.shape))
    out.bprop = bprop
    return out


def concat(nodes, axis: int) -> Node:
    """Join a sequence of nodes along an axis: 0 stacks rows, 1 places
    columns side by side."""
    ends = np.cumsum([n.value.shape[axis] for n in nodes])[:-1]
    out = Node(np.concatenate([n.value for n in nodes], axis=axis), tuple(nodes))
    out.bprop = lambda g, adj: [_accum(adj, n, part) for n, part
                                in zip(nodes, np.split(g, ends, axis=axis))]
    return out


def clip(a: Node, lo: float, hi: float) -> Node:
    """Clamp values; adjoint passes through only inside [lo, hi]."""
    y = np.clip(a.value, lo, hi)
    out = Node(y, (a,))
    out.bprop = lambda g, adj: _accum(adj, a,
                                      g * ((a.value >= lo) & (a.value <= hi)))
    return out


def minimum(a: Node, b: Node) -> Node:
    """Elementwise min; adjoint follows the selected branch (ties go to a)."""
    mask = a.value <= b.value
    out = Node(np.where(mask, a.value, b.value), (a, b))
    out.bprop = lambda g, adj: (
        _accum(adj, a, _unbroadcast(g * mask, a.value.shape)),
        _accum(adj, b, _unbroadcast(g * ~mask, b.value.shape)))
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
    """{parameter name: gradient} of a scalar loss node, each the sum of
    that parameter's leaf adjoints added in forward order to 0.0 (no leaf
    on the graph, no entry).  Adjoints live in a table local to the call:
    the returned arrays are the caller's, and a second call gives equal ones.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss)
    # every node with a bprop or a param gets its whole adjoint before the
    # reverse walk reaches it; a constant leaf has neither, so it is never
    # read, and add, sub and matmul give it none
    adj = {loss: np.ones_like(loss.value)}
    for node in reversed(order):
        if node.bprop is not None:
            node.bprop(adj[node], adj)
    grads = {}
    for node in order:
        if node.param is not None:
            if node.param in grads:
                grads[node.param] += adj[node]
            else:   # adding 0.0 turns -0.0 into 0.0, as a zero-filled sum does
                grads[node.param] = np.add(adj[node], 0.0, out=adj[node])
    return grads
