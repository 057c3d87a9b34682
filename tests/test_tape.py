"""Autodiff primitives and composite layers against finite differences
and hand-computed oracles."""

import math
import zlib
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emtlab import policy as P
from emtlab import ppo
from emtlab.nn import tape
from emtlab.nn.layers import batch_norm, dense, single_head_attention
from emtlab.nn.params import ParameterStore
from emtlab.nn.tape import backward, constant
from emtlab.seeds import derive_rng


def fd_gradcheck(store, build_loss, rng, h=1e-5, rel_tol=1e-4, abs_floor=1e-7,
                 max_coords=6):
    """Central finite differences on sampled coordinates of every parameter;
    one off the graph has no gradient entry and must read as zero."""
    grads = backward(build_loss())
    for name in list(store.params):
        flat = store[name].value.ravel()
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(
            n, size=max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            f_plus = build_loss().value.item()
            flat[c] = orig - h
            f_minus = build_loss().value.item()
            flat[c] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            ad = grads[name].ravel()[c] if name in grads else 0.0
            err = abs(ad - fd)
            rel = err / max(abs(ad), abs(fd), 1e-6)
            assert err <= abs_floor or rel < rel_tol, (
                f"{name}[{c}]: autodiff {ad} vs fd {fd} (rel {rel:.2e})")


def weighted_sum(node, rng):
    """Generic scalar loss: sum of the output times fixed random weights."""
    w = constant(rng.standard_normal(node.value.shape))
    return tape.sum_all(tape.mul(node, w))


class TestDense:
    def test_identity_weights(self):
        store = ParameterStore()
        store.add("lin.W", np.eye(3))
        store.add("lin.b", np.zeros((1, 3)))
        out = dense(store, "lin", constant([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out.value, [[1.0, 2.0, 3.0]])

    def test_zero_weights_bias_only(self):
        store = ParameterStore()
        store.add("lin.W", np.zeros((3, 2)))
        store.add("lin.b", np.array([[0.5, 0.5]]))
        out = dense(store, "lin", constant([[9.0, -4.0, 2.0]]))
        np.testing.assert_allclose(out.value, [[0.5, 0.5]])

    def test_matches_manual_matrix_product(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal((3, 2))
        b = rng.standard_normal((1, 2))
        x = rng.standard_normal(3)
        store = ParameterStore()
        store.add("lin.W", w)
        store.add("lin.b", b)
        out = dense(store, "lin", constant(x.reshape(1, 3)))
        # independent hand computation, explicit loops
        expected = [sum(x[i] * w[i, j] for i in range(3)) + b[0, j]
                    for j in range(2)]
        np.testing.assert_allclose(out.value[0], expected, rtol=1e-12)

    def test_shape_mismatch_raises(self):
        store = ParameterStore()
        store.add("lin.W", np.eye(3))
        store.add("lin.b", np.zeros((1, 3)))
        with pytest.raises(ValueError, match="columns"):
            dense(store, "lin", constant(np.zeros((1, 4))))


class TestActivations:
    def test_tanh_zero(self):
        assert tape.tanh(constant(0.0)).value[0, 0] == 0.0

    def test_relu(self):
        out = tape.relu(constant([[-1.0, 2.0]]))
        np.testing.assert_allclose(out.value, [[0.0, 2.0]])

    def test_softmax_uniform_logits(self):
        out = tape.softmax_rows(constant([[0.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[0.25] * 4])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_sum_to_one_and_positive(self, seed):
        x = np.random.default_rng(seed).uniform(-30, 30, size=(4, 6))
        p = tape.softmax_rows(constant(x)).value
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()


class TestAttention:
    @staticmethod
    def _store(width, rng):
        store = ParameterStore()
        for name in ("Wq", "Wk", "Wv"):
            store.add(f"tr.{name}", rng.standard_normal((width, width)) * 0.5)
        return store

    def test_identical_rows_give_constant_scores(self):
        rng = np.random.default_rng(0)
        store = self._store(4, rng)
        e = np.tile(rng.standard_normal(4), (3, 1))
        scores, out = single_head_attention(store, constant(e), "tr")
        assert np.ptp(scores.value) < 1e-12
        # uniform softmax over identical rows
        att = tape.softmax_rows(scores).value
        np.testing.assert_allclose(att, 1.0 / 3.0, atol=1e-12)

    def test_hand_computed_two_by_two(self):
        store = ParameterStore()
        store.add("tr.Wq", np.array([[1.0, 2.0], [0.0, 1.0]]))
        store.add("tr.Wk", np.array([[1.0, 0.0], [1.0, 1.0]]))
        store.add("tr.Wv", np.eye(2))
        scores, out = single_head_attention(store, constant(np.eye(2)), "tr")
        # q rows: [1,2], [0,1]; k rows: [1,0], [1,1]; dot products / sqrt(2)
        s = math.sqrt(2.0)
        np.testing.assert_allclose(scores.value,
                                   [[1.0 / s, 3.0 / s], [0.0, 1.0 / s]],
                                   rtol=1e-14)
        e00, e01 = math.exp(1.0 / s), math.exp(3.0 / s)
        row0 = [e00 / (e00 + e01), e01 / (e00 + e01)]
        e10, e11 = 1.0, math.exp(1.0 / s)
        row1 = [e10 / (e10 + e11), e11 / (e10 + e11)]
        np.testing.assert_allclose(out.value, [row0, row1], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_vs_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        store = self._store(5, rng)
        e = rng.uniform(-1, 1, size=(3, 5))
        w = rng.standard_normal((3, 5))

        def build():
            scores, out = single_head_attention(store, constant(e), "tr")
            return tape.add(tape.sum_all(tape.mul(out, constant(w))),
                            tape.sum_all(scores))
        fd_gradcheck(store, build, rng)


class TestBatchNorm:
    @staticmethod
    def _store(cols):
        store = ParameterStore()
        store.add("bn.gamma", np.ones((1, cols)))
        store.add("bn.beta", np.zeros((1, cols)))
        return store

    def test_two_point_column(self):
        store = self._store(1)
        out = batch_norm(store, constant([[1.0], [3.0]]), "bn")
        np.testing.assert_allclose(out.value, [[-1.0], [1.0]], atol=1e-4)

    def test_constant_column_is_zeroed(self):
        store = self._store(2)
        out = batch_norm(store, constant(np.full((4, 2), 7.0)), "bn")
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_column_statistics(self):
        rng = np.random.default_rng(3)
        store = self._store(6)
        out = batch_norm(store, constant(rng.standard_normal((40, 6))), "bn").value
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        var = out.var(axis=0)
        assert ((var > 1 - 1e-3) & (var < 1 + 1e-3)).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_vs_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        store = self._store(3)
        store.add("x", rng.uniform(-1, 1, (4, 3)))  # input as a leaf too
        w = rng.standard_normal((4, 3))

        def build():
            return tape.sum_all(tape.mul(
                batch_norm(store, store.leaf("x"), "bn"), constant(w)))
        fd_gradcheck(store, build, rng)


def copy_first_accum(adj, node, g):
    """Reference for `tape._accum`: the first adjoint copied, C-ordered, and
    every later one added to it; backward then had to turn -0.0 into 0.0."""
    if node in adj:
        adj[node] += g
    else:
        adj[node] = g.copy()


def id_keyed_topo_order(root):
    """Reference for `tape._topo_order`: the same walk, with the visited set
    keyed by id()."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def stack_actions(bundles):
    """One ActionBundle of (T, K) fields from T bundles of (K,) fields, as
    the training loop stacks a segment."""
    return P.ActionBundle(*(np.stack([getattr(b, f.name) for b in bundles])
                            for f in fields(P.ActionBundle)))


def ppo_loss_graph(k, n, seed, entropy_coef):
    """A policy store and a builder of its PPO loss over n sampled K-task
    transitions.  The graph has transposes feeding matmuls, shared nodes and
    scattered takes; behaviour log-probabilities are off by up to 0.5
    either way, so the ratios straddle the clip range."""
    rng = derive_rng(seed, "accum")
    store = P.init_policy(seed)
    steps = []
    for t in range(n):
        features = rng.random((k, 5))
        streams = [derive_rng(seed, t, j) for j in range(k)]
        steps.append((features, P.act(store, features, streams)))
    features = np.stack([f for f, _ in steps])
    actions = stack_actions([bundle for _, bundle in steps])
    config = ppo.PPOConfig(entropy_coef=entropy_coef)
    old_logp = (P.evaluate_actions(store, features, actions)[0].value[:, 0, 0]
                + rng.uniform(-0.5, 0.5, size=n))
    adv, ret = rng.normal(size=n), rng.normal(size=n)
    return store, lambda: ppo._ppo_loss(P.evaluate_actions(store, features, actions),
                                        adv, ret, old_logp, config)[0]


class TestBackward:
    def test_sum_of_parameters_gives_unit_gradients(self):
        store = ParameterStore()
        store.add("a", np.arange(6.0).reshape(2, 3))
        store.add("b", np.ones((1, 4)))
        loss = tape.add(tape.sum_all(store.leaf("a")),
                        tape.sum_all(store.leaf("b")))
        grads = backward(loss)
        assert sorted(grads) == ["a", "b"]
        np.testing.assert_array_equal(grads["a"], np.ones((2, 3)))
        np.testing.assert_array_equal(grads["b"], np.ones((1, 4)))

    def test_constant_loss_gives_zero_gradients(self):
        # no parameter is on the graph, so none gets an entry; adam_step
        # steps a missing parameter with a zero gradient
        store = ParameterStore()
        store.add("a", np.ones((2, 2)))
        assert backward(constant(0.0)) == {}

    def test_calls_over_one_store_return_independent_gradients(self):
        store = ParameterStore()
        store.add("a", np.array([[2.0, -1.0]]))
        first = backward(tape.sum_all(tape.scale(store.leaf("a"), 3.0)))
        kept = first["a"].copy()
        second = backward(tape.sum_all(tape.mul(store.leaf("a"),
                                                store.leaf("a"))))
        np.testing.assert_array_equal(first["a"], kept)
        np.testing.assert_array_equal(kept, [[3.0, 3.0]])
        np.testing.assert_array_equal(second["a"], [[4.0, -2.0]])
        assert second["a"] is not first["a"]

    def test_second_call_on_one_graph_returns_equal_separate_gradients(self):
        # the graph keeps no adjoints: a second call neither sums onto the
        # first nor writes into the arrays the first returned
        loss = ppo_loss_graph(4, 3, 7, 0.01)[1]()
        first = backward(loss)
        kept = {name: g.copy() for name, g in first.items()}
        second = backward(loss)
        assert first.keys() == second.keys() == kept.keys()
        for name, g in second.items():
            assert g is not first[name]
            np.testing.assert_array_equal(g, kept[name], err_msg=name)
            np.testing.assert_array_equal(first[name], kept[name], err_msg=name)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(constant(np.ones((2, 2))))

    def test_reused_node_accumulates(self):
        store = ParameterStore()
        store.add("a", np.array([[2.0]]))
        leaf = store.leaf("a")
        loss = tape.sum_all(tape.add(leaf, leaf))  # 2a
        np.testing.assert_array_equal(backward(loss)["a"], [[2.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_net_matches_finite_differences(self, seed):
        rng = np.random.default_rng(1000 + seed)
        store = ParameterStore()
        store.add("l1.W", rng.uniform(-1, 1, (4, 5)))
        store.add("l1.b", rng.uniform(-1, 1, (1, 5)))
        store.add("l2.W", rng.uniform(-1, 1, (5, 2)))
        store.add("l2.b", rng.uniform(-1, 1, (1, 2)))
        x = rng.uniform(-1, 1, (3, 4))
        w = rng.standard_normal((3, 2))

        def build():
            h = tape.tanh(dense(store, "l1", constant(x)))
            return tape.sum_all(tape.mul(dense(store, "l2", h), constant(w)))
        fd_gradcheck(store, build, rng)

    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.sampled_from([0.0, 0.01]))
    @settings(max_examples=25, deadline=None)
    def test_first_adjoint_copy_equals_zero_fill(self, k, n, seed,
                                                 entropy_coef):
        # parameter gradients must not move by a bit, nor a zero flip sign
        store, build_loss = ppo_loss_graph(k, n, seed, entropy_coef)

        grads = backward(build_loss())
        with mock.patch.object(tape, "_accum", copy_first_accum):
            # adding 0.0 turns -0.0 into 0.0, the copy rule's fix-up
            reference = {name: g + 0.0 for name, g in backward(build_loss()).items()}
        assert grads.keys() == reference.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, reference[name], err_msg=name)
            np.testing.assert_array_equal(np.signbit(g),
                                          np.signbit(reference[name]),
                                          err_msg=name)

    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20))
    @settings(max_examples=10, deadline=None)
    def test_topological_order_equals_id_keyed_walk(self, k, n, seed):
        # adjoint sums into shared nodes follow this order, so it must not
        # change by one node
        loss = ppo_loss_graph(k, n, seed, 0.01)[1]()
        order, reference = tape._topo_order(loss), id_keyed_topo_order(loss)
        assert len(order) == len(reference)
        assert all(a is b for a, b in zip(order, reference))


def assert_same_bytes(a, b, err_msg=""):
    assert a.shape == b.shape, err_msg
    assert a.tobytes() == b.tobytes(), err_msg


def _dense(n, d):
    return tape.add(tape.matmul(n["x"], n["W"]), n["b"])


def _sum(n, d):
    return tape.sum_all(n["x"])


def _masked_softmax(n, d):
    mask = np.diag(np.full(n["s"].value.shape[-1], -np.inf))
    return tape.softmax_rows(tape.add(n["s"], constant(mask)))


class TestStackedOps:
    """Every op that the policy graph feeds a (T, K, .) stack, against the
    same op on each item's 2-D values, byte for byte: the values, the
    stacked parents' adjoints, and the gradient of a 2-D parameter
    broadcast over the stack against backward's sum over the T per-item
    graphs' leaves.  This pins the stacked numpy and BLAS calls to the
    per-item ones on the installed build, as TestPickRows pins `choice`."""

    # name: (op of the leaves n and the per-item indices d, and at K tasks
    #        ({stacked parent: item shape}, {2-D parent: shape}))
    CASES = {
        "dense_features": (_dense, lambda k: ({"x": (k, 5)},
                                              {"W": (5, 64), "b": (1, 64)})),
        "dense_pair": (_dense, lambda k: ({"x": (k, 128)},
                                          {"W": (128, 64), "b": (1, 64)})),
        "dense_operators": (_dense, lambda k: ({"x": (k, 64)},
                                               {"W": (64, 4), "b": (1, 4)})),
        "dense_mean": (_dense, lambda k: ({"x": (k, 64)},
                                          {"W": (64, 1), "b": (1, 1)})),
        "dense_critic": (_dense, lambda k: ({"x": (1, 64)},
                                            {"W": (64, 64), "b": (1, 64)})),
        "dense_value": (_dense, lambda k: ({"x": (1, 64)},
                                           {"W": (64, 1), "b": (1, 1)})),
        "projection": (lambda n, d: tape.matmul(n["x"], n["W"]),
                       lambda k: ({"x": (k, 64)}, {"W": (64, 64)})),
        "scores": (lambda n, d: tape.scale(
                       tape.matmul(n["q"], tape.transpose(n["k"])), 0.125),
                   lambda k: ({"q": (k, 64), "k": (k, 64)}, {})),
        "attended": (lambda n, d: tape.matmul(n["p"], n["v"]),
                     lambda k: ({"p": (k, k), "v": (k, 64)}, {})),
        "masked_softmax": (_masked_softmax, lambda k: ({"s": (k, k)}, {})),
        "softmax": (lambda n, d: tape.softmax_rows(n["x"]),
                    lambda k: ({"x": (k, 4)}, {})),
        "mean_rows": (lambda n, d: tape.mean_axis(n["x"], axis=-2),
                      lambda k: ({"x": (k, 64)}, {})),
        "centre": (lambda n, d: tape.sub(n["x"], n["m"]),
                   lambda k: ({"x": (k, 64), "m": (1, 64)}, {})),
        "normalize": (lambda n, d: tape.div(
                          n["x"], tape.sqrt(tape.add(n["v"], constant(1e-5)))),
                      lambda k: ({"x": (k, 64), "v": (1, 64)}, {})),
        "affine": (lambda n, d: tape.add(tape.mul(n["x"], n["gamma"]), n["beta"]),
                   lambda k: ({"x": (k, 64)}, {"gamma": (1, 64), "beta": (1, 64)})),
        "square": (lambda n, d: tape.mul(n["x"], n["x"]),
                   lambda k: ({"x": (k, 64)}, {})),
        "product": (lambda n, d: tape.mul(n["x"], n["y"]),
                    lambda k: ({"x": (k, 4), "y": (k, 4)}, {})),
        "head": (lambda n, d: tape.add(constant(0.5),
                                       tape.scale(tape.tanh(n["x"]), 0.5)),
                 lambda k: ({"x": (k, 1)}, {})),
        "relu": (lambda n, d: tape.relu(n["x"]), lambda k: ({"x": (k, 64)}, {})),
        "log": (lambda n, d: tape.log(tape.add(n["x"], constant(1e-12))),
                lambda k: ({"x": (k, k)}, {})),
        "rows": (lambda n, d: tape.take(n["x"], d["rows"]),
                 lambda k: ({"x": (k, 64)}, {})),
        "entries": (lambda n, d: tape.take(
                        n["x"], (np.arange(n["x"].value.shape[-2]), d["cols"])),
                    lambda k: ({"x": (k, 4)}, {})),
        "pair": (lambda n, d: tape.concat([n["x"], n["y"]], axis=-1),
                 lambda k: ({"x": (k, 64), "y": (k, 64)}, {})),
        "sum_column": (_sum, lambda k: ({"x": (k, 1)}, {})),
        "sum_square": (_sum, lambda k: ({"x": (k, k)}, {})),
        "sum_operators": (_sum, lambda k: ({"x": (k, 4)}, {})),
        "log_norm": (lambda n, d: tape.sub(constant(-2.5), n["x"]),
                     lambda k: ({"x": (1, 1)}, {})),
        "joint": (lambda n, d: tape.add(n["x"], n["y"]),
                  lambda k: ({"x": (1, 1), "y": (1, 1)}, {})),
    }
    POSITIVE = {"normalize", "log"}

    @staticmethod
    def _loss(out, w):
        # a scalar with out's adjoint w: the stack's items as rows of 2-D
        # blocks, so one sum_all reads them all
        width = out.value.shape[-1]
        flat = tape.reshape(out, (-1, width))
        return tape.sum_all(tape.mul(flat, constant(w.reshape(-1, width))))

    @pytest.mark.parametrize("name", sorted(CASES))
    @given(st.integers(1, 16), st.integers(2, 10), st.integers(0, 2 ** 20))
    @settings(max_examples=15, deadline=None)
    def test_equals_per_item_op(self, name, t, k, seed):
        op, shapes = self.CASES[name]
        stacked, shared = shapes(k)
        rng = np.random.default_rng(seed)
        draw = ((lambda s: rng.uniform(0.1, 2.0, s)) if name in self.POSITIVE
                else rng.standard_normal)
        data = {"rows": (np.arange(k) + rng.integers(1, k, (t, k))) % k,
                "cols": rng.integers(0, 4, (t, k))}
        store, items_store = ParameterStore(), ParameterStore()
        for p, shape in stacked.items():
            store.add(p, draw((t,) + shape))
            for i in range(t):
                items_store.add(f"{p}{i}", store[p].value[i])
        for p, shape in shared.items():
            store.add(p, draw(shape))
            items_store.add(p, store[p].value)

        out = op({p: store.leaf(p) for p in store.params}, data)
        w = rng.standard_normal(out.value.shape)
        grads = backward(self._loss(out, w))
        items = [op({**{p: items_store.leaf(f"{p}{i}") for p in stacked},
                     **{p: items_store.leaf(p) for p in shared}},
                    {key: v[i] for key, v in data.items()}) for i in range(t)]
        # the per-item graphs joined as the per-transition scoring joined
        # them: backward meets them last to first
        reference = backward(self._loss(tape.concat(items, axis=0), w))

        assert out.value.shape == (t,) + items[0].value.shape
        for i, item in enumerate(items):
            assert_same_bytes(out.value[i], item.value, f"value {i}")
            for p in stacked:
                assert_same_bytes(grads[p][i], reference[f"{p}{i}"], f"{p}[{i}]")
        for p in shared:
            assert_same_bytes(grads[p], reference[p], p)


class TestPrimitiveGradients:
    """Each primitive against finite differences on random [-1, 1] data."""

    CASES = {
        "add": lambda a, b: tape.add(a, b),
        "sub": lambda a, b: tape.sub(a, b),
        "mul": lambda a, b: tape.mul(a, b),
        "div": lambda a, b: tape.div(a, tape.add(b, constant(3.0))),
        "matmul": lambda a, b: tape.matmul(a, tape.transpose(b)),
        "minimum": lambda a, b: tape.minimum(a, b),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_binary_ops(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        store = ParameterStore()
        store.add("a", rng.uniform(-1, 1, (3, 4)))
        store.add("b", rng.uniform(-1, 1, (3, 4)))
        w = rng.standard_normal(self.CASES[name](
            store.leaf("a"), store.leaf("b")).value.shape)

        def build():
            out = self.CASES[name](store.leaf("a"), store.leaf("b"))
            return tape.sum_all(tape.mul(out, constant(w)))
        fd_gradcheck(store, build, rng)

    UNARY = {
        "tanh": tape.tanh,
        "relu": tape.relu,
        "exp": tape.exp,
        "sqrt": lambda a: tape.sqrt(tape.add(a, constant(2.0))),
        "log": lambda a: tape.log(tape.add(a, constant(2.0))),
        "softmax_rows": tape.softmax_rows,
        "scale": lambda a: tape.scale(a, -1.0),
        "mean0": lambda a: tape.mean_axis(a, 0),
        "mean1": lambda a: tape.mean_axis(a, 1),
        "clip": lambda a: tape.clip(a, -0.5, 0.5),
    }

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary_ops(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        store = ParameterStore()
        store.add("a", rng.uniform(-1, 1, (3, 4)))
        w = rng.standard_normal(self.UNARY[name](store.leaf("a")).value.shape)

        def build():
            return tape.sum_all(tape.mul(self.UNARY[name](store.leaf("a")),
                                         constant(w)))
        fd_gradcheck(store, build, rng)

    def test_take_entries_and_rows(self):
        rng = np.random.default_rng(77)
        store = ParameterStore()
        store.add("a", rng.uniform(-1, 1, (4, 5)))
        rows = np.array([0, 2, 2, 3])
        cols = np.array([1, 0, 0, 4])
        w = rng.standard_normal((4, 1))
        w2 = rng.standard_normal((3, 5))

        def build():
            picked = tape.take(store.leaf("a"), (rows, cols))
            gathered = tape.take(store.leaf("a"), [1, 1, 3])
            return tape.add(tape.sum_all(tape.mul(picked, constant(w))),
                            tape.sum_all(tape.mul(gathered, constant(w2))))
        fd_gradcheck(store, build, rng)

    def test_concat_cols(self):
        # both axes: columns side by side, and rows stacked
        rng = np.random.default_rng(78)
        for axis, shapes, out_shape in ((1, [(3, 2), (3, 4)], (3, 6)),
                                        (0, [(2, 3), (1, 3), (3, 3)], (6, 3))):
            store = ParameterStore()
            names = [f"x{i}" for i in range(len(shapes))]
            for name, shape in zip(names, shapes):
                store.add(name, rng.uniform(-1, 1, shape))
            w = rng.standard_normal(out_shape)

            def build():
                joined = tape.concat([store.leaf(n) for n in names], axis)
                assert joined.value.shape == out_shape
                return tape.sum_all(tape.mul(joined, constant(w)))
            fd_gradcheck(store, build, rng)

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(79)
        store = ParameterStore()
        store.add("b", rng.uniform(-1, 1, (1, 4)))
        x = rng.uniform(-1, 1, (5, 4))
        w = rng.standard_normal((5, 4))

        def build():
            return tape.sum_all(tape.mul(tape.add(constant(x), store.leaf("b")),
                                         constant(w)))
        fd_gradcheck(store, build, rng)

    def test_clip_blocks_gradient_outside_range(self):
        store = ParameterStore()
        store.add("a", np.array([[2.0, 0.2, -3.0]]))
        grads = backward(tape.sum_all(tape.clip(store.leaf("a"), -1.0, 1.0)))
        np.testing.assert_allclose(grads["a"], [[0.0, 1.0, 0.0]])

    def test_softmax_handles_masked_minus_infinity(self):
        x = np.array([[-np.inf, 1.0, 2.0], [0.5, -np.inf, 0.0]])
        store = ParameterStore()
        store.add("a", np.zeros((2, 3)))
        p = tape.softmax_rows(tape.add(store.leaf("a"), constant(x)))
        assert p.value[0, 0] == 0.0 and p.value[1, 1] == 0.0
        np.testing.assert_allclose(p.value.sum(axis=1), 1.0)
        grads = backward(tape.sum_all(tape.log(tape.take(p, ([0, 1], [2, 0])))))
        assert np.isfinite(grads["a"]).all()
