"""Advantage estimation, the clipped-surrogate update, and the training
loop's determinism and accounting."""

import os
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emtlab import benchmarks as B
from emtlab import engine as E
from emtlab import policy as P
from emtlab import ppo
from emtlab.nn import tape
from emtlab.nn.params import load_checkpoint
from emtlab.nn.tape import backward, constant
from emtlab.seeds import derive_rng
from tests.test_harness import OVERFLOW_MESSAGE, overflowing_instance
from tests.test_policy import random_features, task_rngs
from tests.test_tape import assert_same_bytes, stack_actions


def sampled_buffer(store, n, k=3, seed=0, rewards=None):
    """n sampled K-task steps as a segment's arrays: (n, K, 5) features,
    a bundle of (n, K) action fields and (n,) rewards."""
    features = [random_features(k, seed * 100 + i) for i in range(n)]
    bundles = [P.act(store, f, task_rngs(k, seed * 100 + i))
               for i, f in enumerate(features)]
    rewards = np.ones(n) if rewards is None else np.array(rewards, dtype=float)
    return np.stack(features), stack_actions(bundles), rewards


def transition(segment, i):
    """Transition i of a segment alone: its (K, 5) features and a bundle of
    its (K,) action fields, sliced from the stacks."""
    features, actions, _ = segment
    return features[i], P.ActionBundle(*(getattr(actions, f.name)[i]
                                         for f in fields(P.ActionBundle)))


def scored_segment(store, segment, config, bootstrap_value=0.0):
    """What ppo_update's first pass builds: the segment's `evaluate_actions`
    scores, their log-probabilities, and GAE over their values."""
    features, actions, rewards = segment
    scores = P.evaluate_actions(store, features, actions)
    adv, ret = ppo.compute_advantages(rewards, scores[1].value[:, 0, 0], config,
                                      bootstrap_value)
    return scores, scores[0].value[:, 0, 0], adv, ret


def per_transition_loss(scored, advantages, returns, old_logp, config):
    """Reference for `ppo._ppo_loss`: one scalar chain per transition over
    its `evaluate_actions` outputs, summed through accumulators."""
    n = len(scored)
    surr_sum = vloss_sum = ent_sum = None
    want_entropy = config.entropy_coef != 0.0
    for i, (logp, value, entropy) in enumerate(scored):
        ratio = tape.exp(tape.sub(logp, constant(old_logp[i])))
        unclipped = tape.scale(ratio, advantages[i])
        clipped = tape.scale(tape.clip(ratio, 1.0 - config.clip_eps,
                                       1.0 + config.clip_eps), advantages[i])
        surr = tape.minimum(unclipped, clipped)
        verr = tape.sub(constant(returns[i]), value)
        vloss = tape.mul(verr, verr)
        surr_sum = surr if surr_sum is None else tape.add(surr_sum, surr)
        vloss_sum = vloss if vloss_sum is None else tape.add(vloss_sum, vloss)
        if want_entropy:
            ent_sum = entropy if ent_sum is None else tape.add(ent_sum, entropy)
    loss = tape.add(tape.scale(surr_sum, -1.0 / n),
                    tape.scale(vloss_sum, config.value_coef / n))
    if want_entropy:
        loss = tape.sub(loss, tape.scale(ent_sum, config.entropy_coef / n))
    return loss


class TestConfig:
    def test_defaults(self):
        c = ppo.PPOConfig()
        assert (c.t_ppo, c.k_ppo, c.clip_eps, c.learning_rate, c.gamma) == \
            (10, 3, 0.2, 0.0003, 0.99)
        assert c.budget == 250 and c.epochs == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ppo.PPOConfig(clip_eps=0.0)
        with pytest.raises(ValueError):
            ppo.PPOConfig(gamma=0.0)
        with pytest.raises(ValueError):
            ppo.PPOConfig(t_ppo=0)

    @pytest.mark.parametrize("field, value, rule", [
        ("t_ppo", 0, "an integer >= 1"),
        ("t_ppo", 2.0, "an integer >= 1"),
        ("k_ppo", 0, "an integer >= 1"),
        ("k_ppo", True, "an integer >= 1"),
        ("budget", 0, "an integer >= 1"),
        ("epochs", -1, "an integer >= 0"),
        ("epochs", "3", "an integer >= 0"),
        ("clip_eps", 0.0, "a finite number > 0"),
        ("clip_eps", float("nan"), "a finite number > 0"),
        ("clip_eps", float("inf"), "a finite number > 0"),
        ("learning_rate", -1.0, "a finite number > 0"),
        ("learning_rate", 0.0, "a finite number > 0"),
        ("gamma", 0.0, r"a finite number in \(0, 1\]"),
        ("gamma", 1.01, r"a finite number in \(0, 1\]"),
        ("gae_lambda", 1.5, r"a finite number in \[0, 1\]"),
        ("gae_lambda", -0.1, r"a finite number in \[0, 1\]"),
        ("value_coef", float("nan"), "a finite number >= 0"),
        ("value_coef", -0.5, "a finite number >= 0"),
        ("entropy_coef", -0.01, "a finite number >= 0"),
        ("entropy_coef", float("-inf"), "a finite number >= 0"),
    ])
    def test_rejects_field_naming_it_and_its_value(self, field, value, rule):
        with pytest.raises(ValueError,
                           match=rf"^{field} must be {rule}, got {value!r}$"):
            ppo.PPOConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("gamma", 1.0), ("gae_lambda", 0.0), ("gae_lambda", 1),
        ("value_coef", 0.0), ("entropy_coef", 0), ("k_ppo", np.int64(2)),
        ("learning_rate", np.float64(1e-3)),
    ])
    def test_accepts_values_on_the_bounds(self, field, value):
        assert getattr(ppo.PPOConfig(**{field: value}), field) == value


class TestAdvantages:
    def test_all_zero(self):
        adv, ret = ppo.compute_advantages(np.zeros(3), np.zeros(3), ppo.PPOConfig(),
                                          0.0)
        np.testing.assert_allclose(adv, 0.0)
        np.testing.assert_allclose(ret, 0.0)

    def test_single_terminal_step(self):
        adv, ret = ppo.compute_advantages(np.array([2.5]), np.array([0.7]),
                                          ppo.PPOConfig(), 0.0)
        assert adv[0] == pytest.approx(2.5 - 0.7)   # length 1: not normalized
        assert ret[0] == pytest.approx(2.5)

    def test_three_step_hand_recursion(self):
        # gamma=0.9, lambda=0.8; unrolled by hand:
        #   d2 = 2.0 - 0.1 = 1.9               A2 = 1.9
        #   d1 = 0.5 + 0.9*0.1 - 0.4 = 0.19    A1 = 0.19 + 0.72*1.9  = 1.558
        #   d0 = 1.0 + 0.9*0.4 - 0.2 = 1.16    A0 = 1.16 + 0.72*1.558 = 2.28176
        # the last step ends the episode: bootstrap value 0
        config = ppo.PPOConfig(gamma=0.9, gae_lambda=0.8)
        adv, ret = ppo.compute_advantages(np.array([1.0, 0.5, 2.0]),
                                          np.array([0.2, 0.4, 0.1]), config, 0.0)
        raw = ret - np.array([0.2, 0.4, 0.1])
        np.testing.assert_allclose(raw, [2.28176, 1.558, 1.9], rtol=1e-12)
        np.testing.assert_allclose(ret, [2.48176, 1.958, 2.0], rtol=1e-12)

    def test_bootstrap_hand_recursion(self):
        # non-terminal tail bootstrapped with the critic estimate 2.0
        config = ppo.PPOConfig(gamma=0.5, gae_lambda=0.5)
        adv, ret = ppo.compute_advantages(np.ones(2), np.full(2, 0.5), config,
                                          bootstrap_value=2.0)
        np.testing.assert_allclose(ret, [1.625, 2.0], rtol=1e-12)

    def test_normalization_invariant(self):
        rng = derive_rng(1, "adv")
        pairs = np.array([(rng.normal(), rng.normal()) for _ in range(20)])
        adv, _ = ppo.compute_advantages(pairs[:, 0], pairs[:, 1], ppo.PPOConfig(),
                                        0.0)
        assert abs(adv.mean()) < 1e-10
        assert 1 - 1e-6 < adv.var() < 1 + 1e-6

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ppo.compute_advantages(np.zeros(0), np.zeros(0), ppo.PPOConfig(), 0.0)


class TestUpdate:
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2 ** 20),
           st.sampled_from([0.0, 0.01]), st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_first_iteration_ratio_is_one(self, k, n, seed, entropy_coef,
                                          bootstrap):
        # the behaviour log-probabilities are the first pass's own scores,
        # so every first-pass ratio is exactly 1
        store = P.init_policy(seed)
        buf = sampled_buffer(store, n, k=k, seed=seed)
        config = ppo.PPOConfig(k_ppo=2, entropy_coef=entropy_coef,
                               learning_rate=1e-4)
        stats = ppo.ppo_update(store, *buf, config, bootstrap)
        it = stats["iterations"][0]
        assert not stats["aborted"] and it["mean_ratio"] == 1.0
        if n >= 2:
            # with ratio 1 the surrogate is the advantage mean, which
            # normalization makes (numerically) zero
            assert abs(it["surrogate"]) < 1e-9

    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.sampled_from([0.0, 0.01]))
    @settings(max_examples=25, deadline=None)
    def test_column_loss_gradients_equal_per_transition_loop(
            self, k, n, seed, entropy_coef):
        store = P.init_policy(seed)
        rng = derive_rng(seed, "column-loss")
        buf = sampled_buffer(store, n, k=k, seed=seed,
                             rewards=rng.normal(size=n).tolist())
        config = ppo.PPOConfig(entropy_coef=entropy_coef)
        scores, old_logp, adv, ret = scored_segment(store, buf, config)
        # behaviour log-probabilities off by up to 0.5 either way, so the
        # ratios straddle the clip range
        old_logp = old_logp + rng.uniform(-0.5, 0.5, size=n)
        loss, _ = ppo._ppo_loss(scores, adv, ret, old_logp, config)
        grads = backward(loss)
        scored = [P.evaluate_actions(store, *transition(buf, i)) for i in range(n)]
        reference = per_transition_loss(scored, adv, ret, old_logp, config)
        reference_grads = backward(reference)
        assert loss.value.item() == pytest.approx(reference.value.item(),
                                                  rel=1e-12, abs=1e-15)
        assert grads.keys() == reference_grads.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, reference_grads[name], err_msg=name)

    @pytest.mark.parametrize("n", [1, 8, 9, 16])
    @given(st.integers(2, 10), st.integers(0, 2 ** 20),
           st.sampled_from([0.0, 0.01]))
    @settings(max_examples=6, deadline=None)
    def test_stacked_scoring_equals_per_transition_scoring(
            self, n, k, seed, entropy_coef):
        # the reference scores each transition on its own graph and joins
        # the scores; 8, 9 and 16 transitions cross numpy's pairwise-sum
        # threshold for a sum over the stack
        store = P.init_policy(seed)
        rng = derive_rng(seed, "stacked-scoring")
        buf = sampled_buffer(store, n, k=k, seed=seed,
                             rewards=rng.normal(size=n).tolist())
        config = ppo.PPOConfig(entropy_coef=entropy_coef)
        scores, old_logp, adv, ret = scored_segment(store, buf, config)
        scored = [P.evaluate_actions(store, *transition(buf, i)) for i in range(n)]
        reference = tuple(tape.concat(nodes, axis=0) for nodes in zip(*scored))
        for score, expected in zip(scores, reference):
            assert_same_bytes(score.value.reshape(n, 1), expected.value)
        old_logp = old_logp + rng.uniform(-0.5, 0.5, size=n)
        loss, parts = ppo._ppo_loss(scores, adv, ret, old_logp, config)
        expected_loss, expected_parts = ppo._ppo_loss(reference, adv, ret,
                                                      old_logp, config)
        assert_same_bytes(loss.value, expected_loss.value)
        assert parts == expected_parts
        grads, reference_grads = backward(loss), backward(expected_loss)
        assert grads.keys() == reference_grads.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, reference_grads[name], err_msg=name)
            assert_same_bytes(g, reference_grads[name], name)

    def test_clip_boundary_engages(self):
        store = P.init_policy(23)
        f = random_features(3, 5)
        bundle = P.act(store, f, task_rngs(3, 5))
        # reward chosen so the (unnormalized) advantage is +1, behaviour
        # log-prob shifted so the ratio is exactly 2
        v = P.critic_value(store, f).value.item()
        config = ppo.PPOConfig(k_ppo=1, clip_eps=0.2)
        scored, old_logp, adv, ret = scored_segment(
            store, (f[None], stack_actions([bundle]), np.array([v + 1.0])), config)
        assert adv[0] == pytest.approx(1.0, rel=1e-12)
        _, parts = ppo._ppo_loss(scored, adv, ret, old_logp - np.log(2.0), config)
        assert parts["mean_ratio"] == pytest.approx(2.0, rel=1e-10)
        assert parts["surrogate"] == pytest.approx(1.2, rel=1e-10)

    def test_descent_direction(self):
        successes = 0
        for trial in range(20):
            store = P.init_policy(300 + trial)
            rng = derive_rng(trial, "rewards")
            buf = sampled_buffer(store, 4, seed=trial,
                                 rewards=rng.normal(size=4).tolist())
            config = ppo.PPOConfig(k_ppo=1, learning_rate=1e-3)
            scored, old_logp, adv, ret = scored_segment(store, buf, config)
            loss_before, _ = ppo._ppo_loss(scored, adv, ret, old_logp, config)
            ppo.ppo_update(store, *buf, config, 0.0)
            rescored = scored_segment(store, buf, config)[0]
            loss_after, _ = ppo._ppo_loss(rescored, adv, ret, old_logp, config)
            if loss_after.value.item() < loss_before.value.item():
                successes += 1
        assert successes >= 18

    def test_equals_plain_policy_gradient_at_huge_clip(self):
        # clip -> inf, k_ppo = 1, value_coef = 0: the surrogate gradient at
        # the data-collecting parameters equals the score-function estimator
        store = P.init_policy(31)
        buf = sampled_buffer(store, 3, seed=9)
        config = ppo.PPOConfig(k_ppo=1, clip_eps=1e9, value_coef=0.0,
                               learning_rate=1e-3)

        scored, old_logp, adv, ret = scored_segment(store, buf, config)
        loss, _ = ppo._ppo_loss(scored, adv, ret, old_logp, config)
        surrogate_grads = backward(loss)

        total = None
        for i, a in enumerate(adv):
            logp, _, _ = P.evaluate_actions(store, *transition(buf, i))
            term = tape.scale(logp, -a / len(adv))
            total = term if total is None else tape.add(total, term)
        # the critic is on the surrogate's graph (scaled by 0) only
        reference = backward(total)
        for n, g in surrogate_grads.items():
            np.testing.assert_allclose(reference.get(n, 0.0), g,
                                       rtol=1e-8, atol=1e-12)

    def test_non_finite_loss_aborts(self):
        store = P.init_policy(23)
        buf = sampled_buffer(store, 2, seed=2)
        store["kc2.b"].value[0, 0] = np.nan
        before = {n: store[n].value.copy() for n in list(store.params)}
        stats = ppo.ppo_update(store, *buf, ppo.PPOConfig(k_ppo=2), 0.0)
        assert stats["aborted"] and "non-finite" in stats["diagnostic"]
        assert stats["iterations"] == []
        for n in list(store.params):
            np.testing.assert_array_equal(store[n].value, before[n])

    def test_abort_keeps_earlier_passes(self, monkeypatch):
        # the second pass's loss is NaN: the first pass's step stays, and
        # the store ends as one single-pass update leaves it
        rewards = [0.5, -1.0, 2.0]
        reference = P.init_policy(29)
        buf = sampled_buffer(reference, 3, seed=4, rewards=rewards)
        ppo.ppo_update(reference, *buf, ppo.PPOConfig(k_ppo=1), 0.0)
        loss_of = ppo._ppo_loss
        calls = []

        def nan_second_loss(*args):
            loss, parts = loss_of(*args)
            calls.append(1)
            return (tape.scale(loss, np.nan) if len(calls) == 2 else loss), parts

        monkeypatch.setattr(ppo, "_ppo_loss", nan_second_loss)
        store = P.init_policy(29)
        stats = ppo.ppo_update(store, *buf, ppo.PPOConfig(k_ppo=3), 0.0)
        assert stats["aborted"] and len(stats["iterations"]) == 1
        assert len(calls) == 2 and store.step == 1
        for n, p in reference.params.items():
            for attr in ("value", "m1", "m2"):
                np.testing.assert_array_equal(getattr(store[n], attr),
                                              getattr(p, attr), err_msg=n)

    def test_update_changes_parameters(self):
        store = P.init_policy(23)
        rng = derive_rng(3, "rew")
        buf = sampled_buffer(store, 5, seed=3, rewards=rng.normal(size=5).tolist())
        before = {n: store[n].value.copy() for n in list(store.params)}
        stats = ppo.ppo_update(store, *buf, ppo.PPOConfig(), 0.0)
        assert len(stats["iterations"]) == 3
        changed = any(not np.array_equal(store[n].value, before[n])
                      for n in list(store.params))
        assert changed and store.step == 3


def desk_instances(count=2, n_tasks=2, dim=2, seed=0):
    return B.sample_instances(0.2, seed=seed, n_tasks=n_tasks, dim=dim,
                              count=count)


class TestTrain:
    def test_zero_epochs_returns_initial_params(self, tmp_path):
        config = ppo.PPOConfig(epochs=0, budget=4)
        result = ppo.train(desk_instances(), config, seed=7, pop_size=6,
                           out_dir=str(tmp_path))
        reference = P.init_policy(7)
        for n in list(reference.params):
            np.testing.assert_array_equal(result.params[n].value,
                                          reference[n].value)
        assert result.log == []

    def test_empty_train_set_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            ppo.train([], ppo.PPOConfig(), seed=1, pop_size=50,
                      out_dir=str(tmp_path))

    def test_small_population_rejected_before_any_file(self, tmp_path):
        # every episode would fail, and the run would still write checkpoints
        config = ppo.PPOConfig(epochs=2, budget=4, t_ppo=4)
        with pytest.raises(ValueError, match="^population size must be >= 4 "
                                             "for DE/rand/1, got 3$"):
            ppo.train(desk_instances(1), config, seed=13, pop_size=3,
                      out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_missing_nested_out_dir_created(self, tmp_path):
        out = tmp_path / "a" / "b"
        ppo.train(desk_instances(1), ppo.PPOConfig(epochs=1, budget=4, t_ppo=4),
                  seed=13, pop_size=6, out_dir=str(out))
        assert (out / "checkpoint.json").exists()

    def test_out_dir_that_is_a_file_fails_before_any_episode(self, tmp_path,
                                                              monkeypatch):
        out = tmp_path / "taken"
        out.write_text("")
        calls = []
        monkeypatch.setattr(ppo, "run_training_episode",
                            lambda *args: calls.append(args))
        with pytest.raises(FileExistsError, match=re.escape(str(out))):
            ppo.train(desk_instances(1), ppo.PPOConfig(epochs=1, budget=4),
                      seed=13, pop_size=6, out_dir=str(out))
        assert calls == []

    def test_deterministic_log_and_params(self, tmp_path):
        config = ppo.PPOConfig(epochs=2, budget=6, t_ppo=4)
        a = ppo.train(desk_instances(), config, seed=11, pop_size=6,
                      out_dir=str(tmp_path))
        b = ppo.train(desk_instances(), config, seed=11, pop_size=6,
                      out_dir=str(tmp_path))
        assert len(a.log) == len(b.log) == 4
        for ra, rb in zip(a.log, b.log):
            # wall_time legitimately varies; everything else is bit-equal
            assert (ra.epoch, ra.instance_id) == (rb.epoch, rb.instance_id)
            assert ra.episode_return == rb.episode_return
            assert ra.mean_rc == rb.mean_rc and ra.mean_rk == rb.mean_rk
        for n in list(a.params.params):
            np.testing.assert_array_equal(a.params[n].value, b.params[n].value)

    def test_checkpoints_written_and_loadable(self, tmp_path):
        config = ppo.PPOConfig(epochs=2, budget=4, t_ppo=4)
        result = ppo.train(desk_instances(1), config, seed=13, pop_size=6,
                           out_dir=str(tmp_path))
        for name in ("checkpoint_epoch_001.json", "checkpoint_epoch_002.json",
                     "checkpoint.json"):
            assert (tmp_path / name).exists()
        loaded = load_checkpoint(str(tmp_path / "checkpoint.json"))
        f = random_features(2, 77)
        a = P.act_with_context(result.params, f, None)[0]
        b = P.act_with_context(loaded, f, None)[0]
        np.testing.assert_array_equal(a.a2, b.a2)
        np.testing.assert_array_equal(a.a1, b.a1)

    @pytest.mark.parametrize("epochs, saved", [
        (2, ["checkpoint_epoch_001.json", "checkpoint_epoch_002.json"]),
        (0, ["checkpoint.json"])])
    def test_final_checkpoint_serialized_once(self, tmp_path, monkeypatch,
                                              epochs, saved):
        calls = []
        original = ppo.save_checkpoint

        def spy(store, path):
            calls.append(os.path.basename(path))
            original(store, path)

        monkeypatch.setattr(ppo, "save_checkpoint", spy)
        config = ppo.PPOConfig(epochs=epochs, budget=4, t_ppo=4)
        ppo.train(desk_instances(1), config, seed=13, pop_size=6,
                  out_dir=str(tmp_path))
        assert calls == saved
        final = (tmp_path / "checkpoint.json").read_bytes()
        assert final == (tmp_path / saved[-1]).read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            set(saved) | {"checkpoint.json"})

    def test_segments_cut_every_t_ppo_steps_and_at_episode_end(self, monkeypatch):
        # budget 7, t_ppo 3: segments of 3, 3 and 1 steps, each holding its
        # steps' features in order; the first two bootstrap from the critic's
        # value of the state after them, the last ends the episode
        states, segments = [], []
        extract, update = ppo.extract_state, ppo.ppo_update

        def spy_extract(state):
            states.append(extract(state))
            return states[-1]

        def spy_update(store, features, actions, rewards, config, bootstrap):
            # the state after the segment is the last one extracted
            segments.append((features, actions, rewards, bootstrap, len(states),
                             P.critic_value(store, states[-1]).value.item()))
            return update(store, features, actions, rewards, config, bootstrap)

        monkeypatch.setattr(ppo, "extract_state", spy_extract)
        monkeypatch.setattr(ppo, "ppo_update", spy_update)
        ppo.run_training_episode(P.init_policy(37), desk_instances(1)[0],
                                 ppo.PPOConfig(budget=7, t_ppo=3), 6, 41)
        assert len(states) == 8
        assert [len(features) for features, *_ in segments] == [3, 3, 1]
        start = 0
        for features, actions, rewards, bootstrap, seen, value in segments:
            end = start + len(features)
            assert_same_bytes(features, np.stack(states[start:end]))
            assert actions.a1.shape == (end - start, 2)
            assert rewards.shape == (end - start,)
            assert seen == end + 1
            assert bootstrap == (0.0 if end == 7 else value)
            start = end

    def test_episode_return_matches_engine_rewards(self, tmp_path, monkeypatch):
        recorded = []
        original = ppo.emt_step

        def spy(state, action):
            out = original(state, action)
            recorded.append(out[0])
            return out

        monkeypatch.setattr(ppo, "emt_step", spy)
        config = ppo.PPOConfig(epochs=1, budget=5, t_ppo=3)
        result = ppo.train(desk_instances(1), config, seed=17, pop_size=6,
                           out_dir=str(tmp_path))
        assert result.log[0].episode_return == pytest.approx(sum(recorded))

    def test_failed_instance_skipped(self, tmp_path, monkeypatch):
        instances = desk_instances(2)
        calls = {"n": 0}
        original = ppo.run_training_episode

        def flaky(store, instance, config, pop_size, episode_seed):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return original(store, instance, config, pop_size, episode_seed)

        monkeypatch.setattr(ppo, "run_training_episode", flaky)
        config = ppo.PPOConfig(epochs=1, budget=4, t_ppo=4)
        result = ppo.train(instances, config, seed=19, pop_size=6,
                           out_dir=str(tmp_path))
        assert len(result.log) == 1  # first instance failed, second logged

    def test_overflowing_instance_logged_and_skipped(self, tmp_path, caplog):
        config = ppo.PPOConfig(epochs=1, budget=4, t_ppo=4)
        with caplog.at_level("ERROR", logger=ppo.__name__):
            result = ppo.train([overflowing_instance()], config, seed=19,
                               pop_size=6, out_dir=str(tmp_path))
        assert result.log == []
        [record] = caplog.records
        assert record.getMessage() == "episode failed on wide-box (epoch 1), skipping"
        assert re.match(OVERFLOW_MESSAGE, str(record.exc_info[1]))

    def test_training_log_csv(self, tmp_path):
        config = ppo.PPOConfig(epochs=1, budget=4, t_ppo=4)
        result = ppo.train(desk_instances(1), config, seed=23, pop_size=6,
                           out_dir=str(tmp_path))
        path = tmp_path / "log.csv"
        ppo.write_training_log(result.log, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,instance_id,episode_return,mean_Rc,mean_Rk,wall_time"
        assert len(lines) == 2
