"""Reverse-mode automatic differentiation over matrix-valued nodes.

The graph is rebuilt dynamically on every forward pass: each operation
returns a Node holding a float64 value, its parents, and its
vector-Jacobian product vjp(g), which maps the node's adjoint g to one
share per parent, in parent order.  backward() seeds the scalar loss with
1 in a table of its own, walks the graph in reverse topological order,
and returns each parameter's gradient: the sum of the adjoints of its
leaves.  The graph keeps no adjoints, so differentiating it again gives
the same gradients.  backward() alone applies the one rule that makes
every adjoint: it starts as a C-ordered buffer of zeros and each share is
added to it, first summed back over the axes that were broadcast on the
forward pass when its shape differs from the parent's.  take's share is
an (index, values) pair that np.add.at scatters into the buffer in place:
a dense share would add the values of a repeated index to each other
before adding them to what the buffer already holds, and round otherwise.

All values are 2-D matrices, scalars 1x1, or stacks of T such matrices of
shape (T, rows, cols), on which every op acts item by item: matmul and
transpose on the last two axes, sum_all, mean_axis, softmax_rows and take
within each item.  Broadcasting follows numpy rules.  A 2-D value
broadcast over a stack, such as a parameter, gets one adjoint: the items'
adjoints added from the last to the first, the order in which backward()
would add the adjoints of T separate leaves, so a stacked graph gives the
gradients of T 2-D graphs bit for bit.
"""

import numpy as np


class Node:
    __slots__ = ("value", "parents", "vjp", "param")

    def __init__(self, value, parents=(), vjp=None, param=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.param = param


def constant(x) -> Node:
    """Wrap an array or scalar as a non-differentiable leaf."""
    return Node(np.atleast_2d(np.asarray(x, dtype=np.float64)))


def _buffer(table, key, shape):
    # table[key], created as zeros on first use; its C order keeps later
    # matmuls on one BLAS path, and shares of -0.0 sum to 0.0 in it
    buf = table.get(key)
    if buf is None:
        buf = table[key] = np.zeros(shape)
    return buf


def _accum(adj, node, g):
    buf = _buffer(adj, node, node.value.shape)
    buf += g


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
    return Node(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a: Node, b: Node) -> Node:
    return Node(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a: Node, b: Node) -> Node:
    return Node(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def div(a: Node, b: Node) -> Node:
    return Node(a.value / b.value, (a, b), lambda g: (
        g / b.value, -g * a.value / (b.value * b.value)))


def scale(a: Node, c) -> Node:
    """Multiply by a constant: a float, or an array of a's shape."""
    return Node(a.value * c, (a,), lambda g: (g * c,))


def matmul(a: Node, b: Node) -> Node:
    return Node(a.value @ b.value, (a, b), lambda g: (
        g @ b.value.swapaxes(-1, -2), a.value.swapaxes(-1, -2) @ g))


def transpose(a: Node) -> Node:
    return Node(a.value.swapaxes(-1, -2).copy(), (a,),
                lambda g: (g.swapaxes(-1, -2),))


def reshape(a: Node, shape) -> Node:
    return Node(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),))


def tanh(a: Node) -> Node:
    y = np.tanh(a.value)
    return Node(y, (a,), lambda g: (g * (1.0 - y * y),))


def relu(a: Node) -> Node:
    return Node(np.maximum(a.value, 0.0), (a,), lambda g: (g * (a.value > 0.0),))


def exp(a: Node) -> Node:
    y = np.exp(a.value)
    return Node(y, (a,), lambda g: (g * y,))


def log(a: Node) -> Node:
    return Node(np.log(a.value), (a,), lambda g: (g / a.value,))


def sqrt(a: Node) -> Node:
    y = np.sqrt(a.value)
    return Node(y, (a,), lambda g: (g / (2.0 * y),))


def sum_all(a: Node) -> Node:
    """Sum of all entries: 1x1 for a 2-D value, (T, 1, 1) for a stack."""
    v = a.value
    return Node(v.reshape(v.shape[:-2] + (-1,)).sum(axis=-1)[..., None, None], (a,),
                lambda g: (np.broadcast_to(g, v.shape),))


def mean_axis(a: Node, axis: int) -> Node:
    n = a.value.shape[axis]
    return Node(a.value.mean(axis=axis, keepdims=True), (a,),
                lambda g: (np.broadcast_to(g / n, a.value.shape),))


def softmax_rows(a: Node) -> Node:
    """Row-wise softmax; rows with -inf entries get exactly zero there."""
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return Node(p, (a,), lambda g: (p * (g - (g * p).sum(axis=-1, keepdims=True)),))


def take(a: Node, index) -> Node:
    """Gather from a.value: rows for an index array, or an (n, 1) column of
    entries a[rows[i], cols[i]] for a (rows, cols) pair.  On a stack the
    indices are per item, arrays of shape (T, n) or broadcasting to it."""
    entries = isinstance(index, tuple)
    items = (np.arange(len(a.value))[:, None],) if a.value.ndim == 3 else ()
    index = items + (index if entries else (index,))
    picked = a.value[index]
    return Node(picked[..., None] if entries else picked, (a,),
                lambda g: ((index, g.reshape(picked.shape)),))


def concat(nodes, axis: int) -> Node:
    """Join a sequence of nodes along an axis: 0 stacks rows, 1 places
    columns side by side."""
    ends = np.cumsum([n.value.shape[axis] for n in nodes])[:-1]
    return Node(np.concatenate([n.value for n in nodes], axis=axis), tuple(nodes),
                lambda g: np.split(g, ends, axis=axis))


def clip(a: Node, lo: float, hi: float) -> Node:
    """Clamp values; adjoint passes through only inside [lo, hi]."""
    return Node(np.clip(a.value, lo, hi), (a,),
                lambda g: (g * ((a.value >= lo) & (a.value <= hi)),))


def minimum(a: Node, b: Node) -> Node:
    """Elementwise min; adjoint follows the selected branch (ties go to a)."""
    mask = a.value <= b.value
    return Node(np.where(mask, a.value, b.value), (a, b),
                lambda g: (g * mask, g * ~mask))


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
    # every node gets its whole adjoint before the reverse walk reaches it
    adj = {loss: np.ones_like(loss.value)}
    for node in reversed(order):
        if node.vjp is None:
            continue
        for parent, share in zip(node.parents, node.vjp(adj[node])):
            shape = parent.value.shape
            if type(share) is tuple:   # take's (index, values)
                np.add.at(_buffer(adj, parent, shape), *share)
                continue
            if share.shape != shape:
                share = _unbroadcast(share, shape)
            _accum(adj, parent, share)
    grads = {}
    for node in order:   # the first leaf's adjoint buffer holds the sum
        if node.param in grads:
            grads[node.param] += adj[node]
        elif node.param is not None:
            grads[node.param] = adj[node]
    return grads
