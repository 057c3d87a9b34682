"""Controller heads: routing, action bounds, log-probability correctness
against an independent numpy-only forward pass, and equivariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emtlab import harness as H
from emtlab import policy as P
from emtlab.nn import tape
from emtlab.nn.tape import constant
from emtlab.seeds import derive_rng
from tests.test_tape import fd_gradcheck


def random_features(k, seed=0):
    rng = derive_rng(seed, "feat")
    f = rng.random((k, 5))
    f[:, 3] = (f[:, 3] > 0.5).astype(float)
    return f


def task_rngs(k, seed=0):
    return [derive_rng(seed, "task-stream", j) for j in range(k)]


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def numpy_forward(store, features, a1):
    """Independent re-implementation of the full controller data flow with
    plain numpy, no tape; returns the per-head distributions."""
    val = lambda name: store[name].value
    e = features @ val("fe.W") + val("fe.b")
    q, k_, v = e @ val("tr.Wq"), e @ val("tr.Wk"), e @ val("tr.Wv")
    scores = q @ k_.T / math.sqrt(val("tr.Wq").shape[1])
    att_out = _softmax(scores) @ v
    mu = att_out.mean(axis=0)
    var = att_out.var(axis=0)
    decision = ((att_out - mu) / np.sqrt(var + 1e-5)) * val("trbn.gamma") \
        + val("trbn.beta")
    masked = scores.copy()
    np.fill_diagonal(masked, -np.inf)
    route_probs = _softmax(masked)
    h = np.concatenate([decision, decision[a1]], axis=1)

    def head(prefix):
        hidden = np.maximum(h @ val(f"{prefix}1.W") + val(f"{prefix}1.b"), 0.0)
        return hidden @ val(f"{prefix}2.W") + val(f"{prefix}2.b")

    mu_kc = 0.25 + 0.25 * np.tanh(head("kc"))[:, 0]
    op_probs = _softmax(np.maximum(head("op"), 0.0))
    mu_f = 0.5 + 0.5 * np.tanh(head("f"))[:, 0]
    mu_cr = 0.5 + 0.5 * np.tanh(head("cr"))[:, 0]
    return {"scores": masked, "route_probs": route_probs, "mu_kc": mu_kc,
            "op_probs": op_probs, "mu_f": mu_f, "mu_cr": mu_cr,
            "embeddings": e}


def normal_logpdf(x, mu, sd=P.ACTION_STD):
    return -0.5 * ((x - mu) / sd) ** 2 - math.log(sd * math.sqrt(2 * math.pi))


class TestEmbed:
    def test_identical_rows_share_embedding(self):
        store = P.init_policy(1)
        f = np.tile(random_features(1 + 1, 2)[0], (3, 1))
        e = P.embed(store, f).value
        np.testing.assert_array_equal(e[0], e[1])
        np.testing.assert_array_equal(e[0], e[2])

    def test_zero_parameters_zero_output(self):
        store = P.init_policy(1)
        store["fe.W"].value[...] = 0.0
        store["fe.b"].value[...] = 0.0
        np.testing.assert_array_equal(P.embed(store, random_features(4)).value, 0.0)

    def test_permuting_rows_permutes_embeddings(self):
        store = P.init_policy(1)
        f = random_features(5, 3)
        perm = np.array([3, 0, 4, 2, 1])
        np.testing.assert_allclose(P.embed(store, f[perm]).value,
                                   P.embed(store, f).value[perm], rtol=1e-13)

    def test_needs_two_tasks(self):
        with pytest.raises(ValueError, match="2 tasks"):
            P.embed(P.init_policy(1), random_features(5)[0:1])

    def test_wrong_feature_count_names_layer(self):
        with pytest.raises(ValueError, match="^dense 'fe': input has 4 columns, "
                                             "weights expect 5$"):
            P.embed(P.init_policy(1), random_features(3)[:, :4])


class TestTRForward:
    """The attention (tr) block's forward, read through `_trunk`."""
    def test_shapes(self):
        store = P.init_policy(2)
        for k in (2, 5, 9):
            e, decision, masked, route_probs = P._trunk(store, random_features(k))
            assert e.value.shape == decision.value.shape == (k, 64)
            assert masked.value.shape == route_probs.value.shape == (k, k)

    def test_identical_embeddings_constant_score_rows(self):
        store = P.init_policy(2)
        f = np.tile(random_features(2, 5)[0], (4, 1))
        _, _, masked, route_probs = P._trunk(store, f)
        off_diagonal = ~np.eye(4, dtype=bool)
        assert np.ptp(masked.value[off_diagonal]) < 1e-10
        np.testing.assert_allclose(route_probs.value[off_diagonal], 1.0 / 3.0,
                                   rtol=1e-12)


def _routing_store(raw, seed=3):
    """A policy whose trunk yields exactly the score matrix `raw` for the
    returned one-hot features: the embedding copies the features, Wk is the
    identity and Wq carries the score rows (times sqrt(64), which the
    attention scale divides out again)."""
    k = raw.shape[0]
    store = P.init_policy(seed)
    store["fe.W"].value[...] = np.eye(5, 64)
    store["fe.b"].value[...] = 0.0
    store["tr.Wq"].value[...] = 0.0
    store["tr.Wq"].value[:k, :k] = raw * 8.0
    store["tr.Wk"].value[...] = np.eye(64)
    return store, np.eye(k, 5)


class TestRoute:
    def test_two_tasks_forced_choice(self):
        store = P.init_policy(3)
        bundle = P.act_with_context(store, random_features(2, 7), None)[0]
        np.testing.assert_array_equal(bundle.a1, [1, 0])

    def test_deterministic_picks_highest_unmasked(self):
        raw = np.array([[9.0, 5.0, 1.0, 0.0],
                        [2.0, 9.0, 1.5, 0.5],
                        [0.0, 3.0, 9.0, 2.0],
                        [1.0, 0.0, 2.5, 9.0]])
        store, f = _routing_store(raw)
        bundle, scores = P.act_with_context(store, f, None)
        np.testing.assert_array_equal(bundle.a1, [1, 0, 1, 2])
        masked = raw.copy()
        np.fill_diagonal(masked, -np.inf)
        np.testing.assert_array_equal(scores, masked)

    def test_argmax_invariant_under_positive_affine(self):
        rng = derive_rng(4, "rows")
        raw = rng.standard_normal((5, 5))
        a1 = P.act_with_context(*_routing_store(raw), None)[0].a1
        a1b = P.act_with_context(*_routing_store(raw * 3.7 + 11.0), None)[0].a1
        np.testing.assert_array_equal(a1, a1b)

    def test_sampling_frequencies_match_softmax(self):
        raw = np.array([[0.0, 1.0, 0.3, -0.5],
                        [0.2, 0.0, 0.7, 0.1],
                        [1.1, -0.2, 0.0, 0.4],
                        [0.0, 0.9, -0.3, 0.0]])
        masked = raw.copy()
        np.fill_diagonal(masked, -np.inf)
        probs = _softmax(masked)
        _, _, scores, route_probs = P._trunk(*_routing_store(raw))
        np.testing.assert_allclose(route_probs.value, probs, rtol=1e-12)
        n = 100_000
        rng = derive_rng(5, "mc")
        counts = np.zeros((4, 4))
        for _ in range(n):
            for j in range(4):
                counts[j, P._sample_source(rng, route_probs.value[j],
                                           scores.value[j])] += 1
        freq = counts / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert (np.abs(freq - probs) <= 3 * sigma + 1e-9).all()


def _half_read_stores(store):
    """Two copies of store whose heads' first layers read only one half of
    the pair row [decision_j | decision_{a1[j]}]: `own` keeps store's
    weights on the first half, `source` moves them onto the second."""
    own, source = P.init_policy(4), P.init_policy(4)
    for head in ("kc", "op", "f", "cr"):
        w = store[f"{head}1.W"].value
        own[f"{head}1.W"].value[64:] = 0.0
        source[f"{head}1.W"].value[:64] = 0.0
        source[f"{head}1.W"].value[64:] = w[:64]
    return own, source


class TestPairConcat:
    """Every head reads row j as [decision_j | decision_{a1[j]}]."""

    def test_two_task_layout(self):
        # two tasks route to each other: a head that reads only the second
        # half sees the rows that the same head reading only the first half
        # sees, swapped
        store = P.init_policy(4)
        decision = P._trunk(store, random_features(2))[1]
        first, second = _half_read_stores(store)
        own = P._heads(first, decision, np.array([1, 0]))
        source = P._heads(second, decision, np.array([1, 0]))
        for head_own, head_source in zip(own, source):
            assert not np.allclose(head_own.value[0], head_own.value[1])
            np.testing.assert_allclose(head_source.value, head_own.value[::-1],
                                       rtol=1e-12, atol=1e-15)

    def test_width_doubles(self):
        store = P.init_policy(4)
        decision = P._trunk(store, random_features(5))[1]
        assert decision.value.shape == (5, 64)
        for head in ("kc", "op", "f", "cr"):
            assert store[f"{head}1.W"].value.shape[0] == 128
        heads = P._heads(store, decision, np.array([1, 2, 3, 4, 0]))
        for head, width in zip(heads, (1, 4, 1, 1)):
            assert head.value.shape == (5, width)

    def test_changing_source_changes_only_second_half(self):
        store = P.init_policy(4)
        decision = P._trunk(store, random_features(4))[1]
        a = P._heads(store, decision, np.array([1, 0, 0, 0]))
        b = P._heads(store, decision, np.array([2, 0, 0, 0]))
        for head_a, head_b in zip(a, b):
            assert not np.array_equal(head_a.value[0], head_b.value[0])
            np.testing.assert_array_equal(head_a.value[1:], head_b.value[1:])

        # a head that reads only the first half does not see the source
        first, _ = _half_read_stores(store)
        a = P._heads(first, decision, np.array([1, 0, 0, 0]))
        b = P._heads(first, decision, np.array([2, 0, 0, 0]))
        for head_a, head_b in zip(a, b):
            np.testing.assert_array_equal(head_a.value, head_b.value)


def _heads_for(store, k, seed=0):
    """(amount mean, operator probabilities, F mean, Cr mean) under the
    deterministic routing of random_features(k, seed)."""
    _, decision, masked, _ = P._trunk(store, random_features(k, seed))
    return P._heads(store, decision, np.argmax(masked.value, axis=1))


class TestContinuousHeads:
    def test_kc_zero_mlp_gives_quarter(self):
        store = P.init_policy(5)
        store["kc2.W"].value[...] = 0.0
        store["kc2.b"].value[...] = 0.0
        bundle = P.act_with_context(store, random_features(3), None)[0]
        np.testing.assert_allclose(bundle.a2, 0.25)

    def test_kc_saturated_negative_gives_zero(self):
        store = P.init_policy(5)
        store["kc2.W"].value[...] = 0.0
        store["kc2.b"].value[...] = -40.0  # tanh saturates to -1
        bundle = P.act_with_context(store, random_features(3), None)[0]
        np.testing.assert_allclose(bundle.a2, 0.0, atol=1e-12)

    def test_fcr_zero_mlp_gives_half(self):
        store = P.init_policy(5)
        for head in ("f", "cr"):
            store[f"{head}2.W"].value[...] = 0.0
            store[f"{head}2.b"].value[...] = 0.0
        bundle = P.act_with_context(store, random_features(3), None)[0]
        np.testing.assert_allclose(bundle.a32, 0.5)
        np.testing.assert_allclose(bundle.a33, 0.5)

    def test_fcr_saturated_positive_gives_one(self):
        store = P.init_policy(5)
        store["f2.W"].value[...] = 0.0
        store["f2.b"].value[...] = 40.0
        bundle = P.act_with_context(store, random_features(3), None)[0]
        np.testing.assert_allclose(bundle.a32, 1.0, atol=1e-12)

    def test_sampled_bounds_hold_in_bulk(self):
        # one million draws through the sampling path, means near the edges
        # so clamping actually triggers
        rng = derive_rng(6, "bulk")
        hit_low = hit_high = False
        for _ in range(100):
            mu = rng.uniform(-0.05, 0.55, size=10_000)
            draws = P._sample_gaussian([rng] * len(mu), mu, 0.0, 0.5)
            assert (draws >= 0.0).all() and (draws <= 0.5).all()
            hit_low |= (draws == 0.0).any()
            hit_high |= (draws == 0.5).any()
        assert hit_low and hit_high


class TestOperatorHead:
    def test_uniform_logits_give_uniform_probs(self):
        store = P.init_policy(7)
        store["op2.W"].value[...] = 0.0
        store["op2.b"].value[...] = 0.0
        _, op_probs, _, _ = _heads_for(store, 4)
        np.testing.assert_allclose(op_probs.value, 0.25)
        bundle = P.act_with_context(store, random_features(4), None)[0]
        np.testing.assert_array_equal(bundle.a31, 1)  # ties resolve to the lowest id

    def test_dominant_logit_selected(self):
        store = P.init_policy(7)
        store["op2.W"].value[...] = 0.0
        store["op2.b"].value[...] = np.array([[10.0, 0.0, 0.0, 0.0]])
        bundle = P.act_with_context(store, random_features(4), None)[0]
        np.testing.assert_array_equal(bundle.a31, 1)
        store["op2.b"].value[...] = np.array([[0.0, 0.0, 10.0, 0.0]])
        bundle = P.act_with_context(store, random_features(4), None)[0]
        np.testing.assert_array_equal(bundle.a31, 3)

    def test_sampling_frequencies(self):
        store = P.init_policy(7)
        p = _heads_for(store, 2)[1].value[0]
        rng = derive_rng(8, "opmc")
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            a = P._sample_categorical(rng, p)
            counts[a] += 1
        freq = counts / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert (np.abs(freq - p) <= 3 * sigma + 1e-9).all()


class TestAct:
    def test_deterministic_is_pure(self):
        store = P.init_policy(9)
        f = random_features(4, 9)
        a = P.act_with_context(store, f, None)[0]
        b = P.act_with_context(store, f, None)[0]
        np.testing.assert_array_equal(a.a1, b.a1)
        np.testing.assert_array_equal(a.a2, b.a2)
        np.testing.assert_array_equal(a.a31, b.a31)
        np.testing.assert_array_equal(a.a32, b.a32)
        np.testing.assert_array_equal(a.a33, b.a33)

    def test_sample_mode_reproducible(self):
        store = P.init_policy(9)
        f = random_features(4, 9)
        a = P.act(store, f, task_rngs(4, 1))
        b = P.act(store, f, task_rngs(4, 1))
        for name in ("a1", "a2", "a31", "a32", "a33"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_bounds_always_hold(self):
        for seed in range(15):
            store = P.init_policy(100 + seed)
            k = 2 + seed % 5
            for draw in range(10):
                f = random_features(k, seed * 31 + draw)
                b = P.act(store, f, task_rngs(k, draw))
                assert (b.a1 != np.arange(k)).all()
                assert (b.a1 >= 0).all() and (b.a1 < k).all()
                assert (b.a2 >= 0).all() and (b.a2 <= 0.5).all()
                assert set(b.a31) <= {1, 2, 3, 4}
                assert (b.a32 >= 0).all() and (b.a32 <= 1).all()
                assert (b.a33 >= 0).all() and (b.a33 <= 1).all()
                assert math.isfinite(P.evaluate_actions(store, f, b)[0].value.item())

    def test_streams_read_in_documented_order(self):
        # task j's stream alone yields routing, amount, operator, F and Cr,
        # in that order; replayed by hand from the trunk and heads
        store, k = P.init_policy(21), 5
        f = random_features(k, 24)
        act_streams, streams = task_rngs(k, 6), task_rngs(k, 6)
        bundle = P.act(store, f, act_streams)
        _, decision, masked, route_probs = P._trunk(store, f)

        def inverse_cdf(probs, rng):
            cdf = np.cumsum(probs)
            cdf[-1] = 1.0
            return int(np.searchsorted(cdf, rng.random(), side="right"))
        a1 = []
        for j, rng in enumerate(streams):
            order = np.argsort(-masked.value[j], kind="stable")
            a1.append(order[inverse_cdf(route_probs.value[j][order], rng)])
        mu_kc, op_probs, mu_f, mu_cr = (h.value for h in
                                        P._heads(store, decision, np.array(a1)))
        for j, rng in enumerate(streams):
            assert bundle.a1[j] == a1[j]
            assert bundle.a2[j] == np.clip(rng.normal(mu_kc[j, 0], P.ACTION_STD), 0, 0.5)
            assert bundle.a31[j] == 1 + inverse_cdf(op_probs[j], rng)
            assert bundle.a32[j] == np.clip(rng.normal(mu_f[j, 0], P.ACTION_STD), 0, 1)
            assert bundle.a33[j] == np.clip(rng.normal(mu_cr[j, 0], P.ACTION_STD), 0, 1)
            assert act_streams[j].bit_generator.state == rng.bit_generator.state

    def test_deterministic_pass_draws_nothing(self):
        # the harness holds each episode's ablation stream while the full
        # controller acts through act_with_context
        store, f = P.init_policy(21), random_features(4, 25)
        rng = derive_rng(3, "ablation")
        state = rng.bit_generator.state
        bundle = H.Controller(store, "full").act(f, rng)[0]
        P.act_with_context(store, f, forced_a1=bundle.a1)
        assert rng.bit_generator.state == state

    def test_log_prob_decomposes_against_numpy_oracle(self):
        store = P.init_policy(11)
        f = random_features(5, 11)
        bundle = P.act(store, f, task_rngs(5, 3))
        ref = numpy_forward(store, f, bundle.a1)
        _, decision, _, _ = P._trunk(store, f)
        mu_kc, _, mu_f, mu_cr = P._heads(store, decision, bundle.a1)
        np.testing.assert_allclose(mu_kc.value[:, 0], ref["mu_kc"], rtol=1e-10)
        np.testing.assert_allclose(mu_f.value[:, 0], ref["mu_f"], rtol=1e-10)
        np.testing.assert_allclose(mu_cr.value[:, 0], ref["mu_cr"], rtol=1e-10)
        expected = 0.0
        for j in range(5):
            expected += math.log(ref["route_probs"][j, bundle.a1[j]])
            expected += normal_logpdf(bundle.a2[j], ref["mu_kc"][j])
            expected += math.log(ref["op_probs"][j, bundle.a31[j] - 1])
            expected += normal_logpdf(bundle.a32[j], ref["mu_f"][j])
            expected += normal_logpdf(bundle.a33[j], ref["mu_cr"][j])
        logp, _, _ = P.evaluate_actions(store, f, bundle)
        assert logp.value.item() == pytest.approx(expected, rel=1e-10)

    def test_context_scores_match_oracle(self):
        store = P.init_policy(11)
        f = random_features(4, 12)
        bundle, scores = P.act_with_context(store, f, None)
        ref = numpy_forward(store, f, bundle.a1)
        np.testing.assert_allclose(scores, ref["scores"], rtol=1e-12)
        assert np.isneginf(np.diag(scores)).all()
        np.testing.assert_allclose(P.embed(store, f).value, ref["embeddings"],
                                   rtol=1e-12)

    def test_permutation_equivariance(self):
        store = P.init_policy(13)
        k = 5
        f = random_features(k, 21)
        perm = np.array([2, 0, 4, 1, 3])
        inverse = np.argsort(perm)
        base = P.act(store, f,
                     [derive_rng(50, "stream", j) for j in range(k)])
        permuted = P.act(store, f[perm],
                         [derive_rng(50, "stream", perm[i]) for i in range(k)])
        np.testing.assert_allclose(permuted.a2, base.a2[perm], rtol=1e-10)
        np.testing.assert_array_equal(permuted.a31, base.a31[perm])
        np.testing.assert_allclose(permuted.a32, base.a32[perm], rtol=1e-10)
        np.testing.assert_allclose(permuted.a33, base.a33[perm], rtol=1e-10)
        np.testing.assert_array_equal(permuted.a1, inverse[base.a1[perm]])
        base_logp = P.evaluate_actions(store, f, base)[0].value.item()
        permuted_logp = P.evaluate_actions(store, f[perm], permuted)[0].value.item()
        assert permuted_logp == pytest.approx(base_logp, rel=1e-10)

    def test_forced_routing_respected(self):
        store = P.init_policy(13)
        f = random_features(4, 22)
        forced = np.array([2, 3, 0, 1])
        bundle = P.act_with_context(store, f, forced_a1=forced)[0]
        np.testing.assert_array_equal(bundle.a1, forced)

    def test_self_routing_rejected(self):
        store = P.init_policy(13)
        with pytest.raises(ValueError, match="own source"):
            P.act_with_context(store, random_features(4, 22),
                               forced_a1=np.array([0, 0, 1, 2]))

    def test_overflowing_forward_raises(self):
        # 1e300 is finite, so a checkpoint holding it loads; the scores it
        # gives are not, and every pass through the trunk must say so
        store = P.init_policy(13)
        f = random_features(4, 24)
        bundle = P.act(store, f, task_rngs(4, 1))
        store["fe.W"].value[...] = 1e300
        calls = {"act": lambda: P.act(store, f, task_rngs(4, 1)),
                 "act_with_context": lambda: P.act_with_context(store, f, None),
                 "evaluate_actions": lambda: P.evaluate_actions(store, f, bundle)}
        for name, call in calls.items():
            with np.errstate(all="ignore"), pytest.raises(
                    ValueError, match="^routing scores are not finite: the policy "
                                      "forward overflowed or a parameter is not finite$"):
                call()

    def test_sample_mode_requires_stream_per_task(self):
        store = P.init_policy(13)
        with pytest.raises(ValueError, match="one rng stream per task"):
            P.act(store, random_features(4, 23), task_rngs(3, 0))


class TestCritic:
    def test_zero_weights_give_zero(self):
        store = P.init_policy(15)
        for name in ("critic1.W", "critic1.b", "critic2.W", "critic2.b"):
            store[name].value[...] = 0.0
        assert P.critic_value(store, random_features(4)).value.item() == 0.0

    def test_permutation_invariant(self):
        store = P.init_policy(15)
        f = random_features(6, 30)
        perm = derive_rng(0, "perm").permutation(6)
        a = P.critic_value(store, f).value.item()
        b = P.critic_value(store, f[perm]).value.item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_gradients(self):
        rng = derive_rng(1, "cfd")
        store = P.init_policy(15)
        f = random_features(4, 31)
        fd_gradcheck(store, lambda: P.critic_value(store, f), rng, max_coords=3)


class TestEvaluateActions:
    @given(st.integers(2, 10), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rescoring_is_exact(self, k, seed):
        # scoring is a pure function of the parameters, and the GAE values
        # (evaluate_actions) and the segment bootstrap (critic_value) are
        # one function of the state
        store = P.init_policy(seed)
        f = random_features(k, seed)
        bundle = P.act(store, f, task_rngs(k, seed))
        logp, value, _ = P.evaluate_actions(store, f, bundle)
        again, _, _ = P.evaluate_actions(store, f, bundle)
        assert math.isfinite(logp.value.item())
        assert logp.value.item() == again.value.item()
        assert value.value.item() == P.critic_value(store, f).value.item()

    def test_entropy_is_positive_and_finite(self):
        store = P.init_policy(17)
        f = random_features(4, 41)
        bundle = P.act(store, f, task_rngs(4, 8))
        _, _, ent = P.evaluate_actions(store, f, bundle)
        assert np.isfinite(ent.value).all() and ent.value.item() > 0

    @pytest.mark.parametrize("k", [2, 5])
    def test_full_gradient_check(self, k):
        rng = derive_rng(2, "efd", k)
        store = P.init_policy(19)
        f = random_features(k, 42 + k)
        bundle = P.act(store, f, task_rngs(k, 9))

        def build():
            logp, value, _ = P.evaluate_actions(store, f, bundle)
            return tape.add(logp, value)
        fd_gradcheck(store, build, rng, max_coords=3)
