"""Clipped-surrogate policy optimization over transfer-engine rollouts.

Training walks the instance set once per epoch.  Each instance hosts one
episode of `budget` generations; every `t_ppo` steps (and at episode end)
the collected segment is turned into generalized-advantage estimates and
the policy takes `k_ppo` full-batch update passes of

    loss = -E[min(r A, clip(r, 1-eps, 1+eps) A)]
           + value_coef * E[(return - V)^2] - entropy_coef * H

where r is the ratio of the current to the behaviour probability of the
joint action.  Each pass scores the segment as (T, 1) columns
(`score_segment`), and the loss is one array expression over them.
Rollouts only act; the first pass scores the segment with the parameters
that collected it, and those log-probabilities and values are the
behaviour log-probabilities and GAE values of all k_ppo passes.
Advantages are normalized within each segment; returns are raw advantages
plus values and serve as critic targets.
"""

import logging
import math
import numbers
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import check_pop_size, emt_step, extract_state, init_populations
from .nn import tape
from .nn.params import ParameterStore, adam_step, save_checkpoint
from .nn.tape import backward, constant
from .policy import ActionBundle, act, critic_value, evaluate_actions, init_policy
from .seeds import derive_rng, derive_seed

log = logging.getLogger(__name__)


@dataclass
class Transition:
    features: np.ndarray
    action: ActionBundle
    reward: float


@dataclass
class PPOConfig:
    t_ppo: int = 10
    k_ppo: int = 3
    clip_eps: float = 0.2
    learning_rate: float = 0.0003
    gamma: float = 0.99
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    epochs: int = 10
    budget: int = 250

    def __post_init__(self):
        # int fields take integers, float fields finite numbers; bools neither
        for name, rule, ok in (
                ("t_ppo", "an integer >= 1", lambda v: v >= 1),
                ("k_ppo", "an integer >= 1", lambda v: v >= 1),
                ("budget", "an integer >= 1", lambda v: v >= 1),
                ("epochs", "an integer >= 0", lambda v: v >= 0),
                ("clip_eps", "a finite number > 0", lambda v: v > 0),
                ("learning_rate", "a finite number > 0", lambda v: v > 0),
                ("gamma", "a finite number in (0, 1]", lambda v: 0 < v <= 1),
                ("gae_lambda", "a finite number in [0, 1]", lambda v: 0 <= v <= 1),
                ("value_coef", "a finite number >= 0", lambda v: v >= 0),
                ("entropy_coef", "a finite number >= 0", lambda v: v >= 0)):
            value = getattr(self, name)
            kind = numbers.Integral if self.__annotations__[name] is int else numbers.Real
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not math.isfinite(value) or not ok(value)):
                raise ValueError(f"{name} must be {rule}, got {value!r}")


def compute_advantages(rewards, values, config: PPOConfig,
                       bootstrap_value: float):
    """GAE over one contiguous segment of per-step rewards and values.

    bootstrap_value is the critic's estimate of the state following the
    last transition, 0 when that transition ends the episode.  Returns
    (advantages, returns) with advantages normalized to zero mean and unit
    variance for segments of length >= 2; returns are computed from the
    raw advantages.
    """
    n = len(rewards)
    if n == 0:
        raise ValueError("empty segment")
    adv = np.zeros(n)
    running = 0.0
    next_value = bootstrap_value
    for t in range(n - 1, -1, -1):
        delta = rewards[t] + config.gamma * next_value - values[t]
        running = delta + config.gamma * config.gae_lambda * running
        adv[t] = running
        next_value = values[t]
    returns = adv + values
    if n >= 2:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return adv, returns


def score_segment(store: ParameterStore, buffer):
    """Score every transition of a segment with `evaluate_actions`; returns
    its log-probabilities, values and entropies as three (T, 1) columns."""
    scored = [evaluate_actions(store, t.features, t.action) for t in buffer]
    return tuple(tape.concat(nodes, axis=0) for nodes in zip(*scored))


def _ppo_loss(columns, advantages, returns, old_logp, config: PPOConfig):
    """Clipped-surrogate loss over a segment's `score_segment` columns;
    advantages, returns and old_logp hold one entry per transition.  The
    entropy enters the loss only when entropy_coef is nonzero."""
    logp, value, entropy = columns
    n = logp.value.shape[0]
    adv = np.reshape(advantages, (n, 1))
    ratio = tape.exp(tape.sub(logp, constant(np.reshape(old_logp, (n, 1)))))
    clipped = tape.clip(ratio, 1.0 - config.clip_eps, 1.0 + config.clip_eps)
    surr = tape.sum_all(tape.minimum(tape.scale(ratio, adv),
                                     tape.scale(clipped, adv)))
    verr = tape.sub(constant(np.reshape(returns, (n, 1))), value)
    vloss = tape.sum_all(tape.mul(verr, verr))
    ent = tape.sum_all(entropy)
    loss = tape.add(tape.scale(surr, -1.0 / n),
                    tape.scale(vloss, config.value_coef / n))
    if config.entropy_coef != 0.0:
        loss = tape.sub(loss, tape.scale(ent, config.entropy_coef / n))
    parts = {name: node.value.item() / n for name, node in
             (("surrogate", surr), ("value_loss", vloss), ("entropy", ent))}
    parts["mean_ratio"] = float(ratio.value.mean())
    return loss, parts


def ppo_update(buffer, store: ParameterStore, config: PPOConfig,
               bootstrap_value: float) -> dict:
    """k_ppo clipped-surrogate passes over one segment, one Adam step each.

    A non-finite loss aborts the update: that pass applies no step, earlier
    passes keep theirs, and the returned statistics hold the diagnostic.
    Non-finite routing scores raise the policy's ValueError instead.
    """
    rewards = np.array([t.reward for t in buffer])
    stats = {"iterations": [], "aborted": False, "diagnostic": None}
    for it in range(config.k_ppo):
        columns = score_segment(store, buffer)
        if it == 0:
            old_logp = columns[0].value[:, 0]
            advantages, returns = compute_advantages(
                rewards, columns[1].value[:, 0], config, bootstrap_value)
        loss, parts = _ppo_loss(columns, advantages, returns, old_logp, config)
        if not np.isfinite(loss.value).all():
            stats["aborted"] = True
            stats["diagnostic"] = (
                f"non-finite loss (surrogate={parts['surrogate']}, "
                f"value_loss={parts['value_loss']}, ratio={parts['mean_ratio']})")
            log.warning("ppo_update aborted: %s", stats["diagnostic"])
            break
        adam_step(store, backward(loss), config.learning_rate)
        parts["loss"] = loss.value.item()
        stats["iterations"].append(parts)
    return stats


@dataclass
class EpisodeLog:
    epoch: int
    instance_id: str
    episode_return: float
    mean_rc: float
    mean_rk: float
    wall_time: float


@dataclass
class TrainResult:
    params: ParameterStore
    log: list = field(default_factory=list)


def run_training_episode(store, instance, config: PPOConfig, pop_size: int,
                         episode_seed: int) -> tuple:
    """One sampled-policy episode with interleaved updates.

    Returns (episode_return, mean_rc, mean_rk) where the means are per-step
    sums of the reward components averaged over the episode.
    """
    state = init_populations(instance, pop_size,
                             derive_seed(episode_seed, "engine"), config.budget)
    rngs = [derive_rng(episode_seed, "sample", j)
            for j in range(instance.n_tasks)]
    features = extract_state(state)
    buffer = []
    ep_return = rc_total = rk_total = 0.0
    for t in range(1, config.budget + 1):
        bundle = act(store, features, rngs)
        reward, rc, rk = emt_step(state, bundle)
        ep_return += reward
        rc_total += float(rc.sum())
        rk_total += float(rk.sum())
        buffer.append(Transition(features, bundle, reward))
        next_features = extract_state(state)
        done = t == config.budget
        if t % config.t_ppo == 0 or done:
            bootstrap = (0.0 if done else
                         critic_value(store, next_features).value.item())
            ppo_update(buffer, store, config, bootstrap)
            buffer = []
        features = next_features
    return ep_return, rc_total / config.budget, rk_total / config.budget


def train(train_set, config: PPOConfig, seed: int, pop_size: int,
          out_dir: str) -> TrainResult:
    """Full training loop: `epochs` passes over the instance set, one
    episode per instance, a checkpoint per epoch in the directory out_dir,
    which is created with its parents before the first episode;
    checkpoint.json is a copy of the last one (of the initial parameters
    when epochs is 0).  A failing instance run is logged and skipped."""
    if not train_set:
        raise ValueError("training set must not be empty")
    check_pop_size(pop_size)
    os.makedirs(out_dir, exist_ok=True)
    store = init_policy(seed)
    result = TrainResult(store)
    last_checkpoint = None
    for epoch in range(1, config.epochs + 1):
        for inst in train_set:
            start = time.perf_counter()
            episode_seed = derive_seed(seed, "episode", epoch, inst.instance_id)
            try:
                ep_return, mean_rc, mean_rk = run_training_episode(
                    store, inst, config, pop_size, episode_seed)
            except Exception:
                log.exception("episode failed on %s (epoch %d), skipping",
                              inst.instance_id, epoch)
                continue
            result.log.append(EpisodeLog(epoch, inst.instance_id, ep_return,
                                         mean_rc, mean_rk,
                                         time.perf_counter() - start))
        last_checkpoint = f"{out_dir}/checkpoint_epoch_{epoch:03d}.json"
        save_checkpoint(store, last_checkpoint)
    final = f"{out_dir}/checkpoint.json"
    if last_checkpoint is None:
        save_checkpoint(store, final)
    else:
        shutil.copyfile(last_checkpoint, final + ".tmp")
        os.replace(final + ".tmp", final)
    return result


def write_training_log(rows, path: str) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "instance_id", "episode_return", "mean_Rc",
                         "mean_Rk", "wall_time"])
        for r in rows:
            writer.writerow([r.epoch, r.instance_id, repr(r.episode_return),
                             repr(r.mean_rc), repr(r.mean_rk),
                             f"{r.wall_time:.3f}"])
