"""Multi-role controller for the transfer engine.

A shared embedder lifts each task's 5 state features to a 64-dimensional
embedding.  A single-head attention block over the task axis produces a
K x K score matrix (used directly for routing: self entries are masked
and each target picks a source task) and, after batch normalization, a
decision embedding.  Each routed pair's concatenated embedding feeds four
small MLP heads:

    transfer amount   mu = 0.25 + 0.25 tanh(.)   -> a2  in [0, 0.5]
    operator choice   softmax over 4 logits      -> a31 in {1..4}
    mutation strength mu = 0.5 + 0.5 tanh(.)     -> a32 in [0, 1]
    crossover rate    mu = 0.5 + 0.5 tanh(.)     -> a33 in [0, 1]

Continuous actions are drawn from Gaussians with fixed standard deviation
0.1 around the head means and clamped to their ranges; their log-density
is scored as that of the unclamped Gaussian at the clamped value.
`act`, the sampled pass of training, draws every action, task j's only
from the j-th RNG stream (order per task: routing, amount, operator, F,
Cr), which keeps the whole controller permutation-equivariant in the
task axis.  `act_with_context`, the deterministic pass of inference,
takes the argmax of discrete actions and the mean of continuous ones.

A value critic (MLP on the mean task embedding) provides the baseline for
advantage estimation; it is permutation-invariant and K-agnostic.

Acting and scoring share one forward path: `_trunk` (embedding,
attention, masked routing softmax) and `_heads` (the four per-task
distributions given a routing).  `act` and `act_with_context` only
choose actions from them and record no probabilities; `evaluate_actions`
rebuilds the same graph for a chosen bundle and adds `_log_prob` (the
joint log-probability, routing included), the critic and the entropy.
The policy update scores a whole segment there in one call per pass, on
(T, K, .) stacks of its features and bundles: the same ops act on each
item, and give each transition's scores and gradients bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import OPERATORS
from .nn import tape
from .nn.layers import batch_norm, dense, single_head_attention
from .nn.params import ParameterStore, add_dense
from .nn.tape import Node, constant
from .seeds import derive_rng

FEATURE_DIM = 5
EMBED_DIM = 64
HIDDEN_DIM = 64
N_OPERATORS = len(OPERATORS)
ACTION_STD = 0.1
_LOG_NORM = math.log(ACTION_STD * math.sqrt(2.0 * math.pi))


@dataclass
class ActionBundle:
    """One generation's joint decision for all K tasks."""
    a1: np.ndarray        # (K,) source task per target, a1[j] != j
    a2: np.ndarray        # (K,) transfer proportion
    a31: np.ndarray       # (K,) operator id in {1..4}
    a32: np.ndarray       # (K,) mutation strength F
    a33: np.ndarray       # (K,) crossover rate Cr


def init_policy(seed: int) -> ParameterStore:
    rng = derive_rng(seed, "policy-init")
    store = ParameterStore()
    add_dense(store, rng, "fe", FEATURE_DIM, EMBED_DIM)
    for name in ("Wq", "Wk", "Wv"):
        store.add(f"tr.{name}",
                  rng.uniform(-1, 1, (EMBED_DIM, EMBED_DIM)) / math.sqrt(EMBED_DIM))
    store.add("trbn.gamma", np.ones((1, EMBED_DIM)))
    store.add("trbn.beta", np.zeros((1, EMBED_DIM)))
    for head, out_dim in (("kc", 1), ("op", N_OPERATORS), ("f", 1), ("cr", 1)):
        add_dense(store, rng, f"{head}1", 2 * EMBED_DIM, HIDDEN_DIM)
        add_dense(store, rng, f"{head}2", HIDDEN_DIM, out_dim)
    add_dense(store, rng, "critic1", EMBED_DIM, HIDDEN_DIM)
    add_dense(store, rng, "critic2", HIDDEN_DIM, 1)
    return store


def embed(store: ParameterStore, features: np.ndarray) -> Node:
    """Shared per-task linear map of the 5 state features to 64 dims."""
    feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if feats.shape[-2] < 2:
        raise ValueError("need at least 2 tasks")
    return dense(store, "fe", constant(feats))


def _sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> int:
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def _sample_source(rng: np.random.Generator, probs: np.ndarray,
                   scores: np.ndarray) -> int:
    # invert the CDF over sources in descending-score order: the partition
    # of [0, 1) is then a property of the tasks themselves, which keeps
    # sampled routing equivariant under task permutations
    order = np.argsort(-scores, kind="stable")
    return int(order[_sample_categorical(rng, probs[order])])


def _trunk(store, features):
    """Shared trunk: embeddings, decision embedding, masked routing scores
    and their row softmax (the routing distribution).  Non-finite scores
    raise ValueError, before they can route a task to itself."""
    e = embed(store, features)
    scores, attended = single_head_attention(store, e, "tr")
    decision = batch_norm(store, attended, "trbn")
    if not np.isfinite(scores.value).all():
        raise ValueError("routing scores are not finite: the policy forward "
                         "overflowed or a parameter is not finite")
    # a task never routes to itself
    masked = tape.add(scores, constant(np.diag(np.full(scores.value.shape[-1], -np.inf))))
    return e, decision, masked, tape.softmax_rows(masked)


def _mu_head(store, head: str, h_concat: Node, center: float, half_range: float) -> Node:
    hidden = tape.relu(dense(store, f"{head}1", h_concat))
    raw = tape.tanh(dense(store, f"{head}2", hidden))
    return tape.add(constant(center), tape.scale(raw, half_range))


def _heads(store, decision: Node, a1: np.ndarray):
    """Per-task distributions given the routing a1: (amount mean, operator
    probabilities, F mean, Cr mean).  The amount mean lies in [0, 0.5],
    F and Cr means in [0, 1]; the operator head has a ReLU output layer.
    Every head reads row j as [decision_j | decision_{a1[j]}]."""
    if np.any(a1 == np.arange(decision.value.shape[-2])):
        raise ValueError("routing selected a task as its own source")
    h_concat = tape.concat([decision, tape.take(decision, a1)], axis=-1)
    mu_kc = _mu_head(store, "kc", h_concat, 0.25, 0.25)
    op_hidden = tape.relu(dense(store, "op1", h_concat))
    op_probs = tape.softmax_rows(tape.relu(dense(store, "op2", op_hidden)))
    return (mu_kc, op_probs, _mu_head(store, "f", h_concat, 0.5, 0.5),
            _mu_head(store, "cr", h_concat, 0.5, 0.5))


def _gaussian_logp(mu: Node, values) -> Node:
    values = np.asarray(values, dtype=np.float64)
    diff = tape.sub(constant(values[..., None]), mu)
    quad = tape.scale(tape.mul(diff, diff), 1.0 / (2.0 * ACTION_STD ** 2))
    return tape.sub(constant(-values.shape[-1] * _LOG_NORM), tape.sum_all(quad))


def _categorical_logp(probs: Node, choice) -> Node:
    rows = np.arange(probs.value.shape[-2])
    return tape.sum_all(tape.log(tape.take(probs, (rows, np.asarray(choice, dtype=int)))))


def _log_prob(heads, bundle: ActionBundle, route_probs: Node) -> Node:
    """Joint log-probability of a bundle's amount, operator, F, Cr and
    routing, summed in that order."""
    mu_kc, op_probs, mu_f, mu_cr = heads
    logp = tape.add(_gaussian_logp(mu_kc, bundle.a2),
                    _categorical_logp(op_probs, np.asarray(bundle.a31) - 1))
    logp = tape.add(logp, _gaussian_logp(mu_f, bundle.a32))
    logp = tape.add(logp, _gaussian_logp(mu_cr, bundle.a33))
    return tape.add(logp, _categorical_logp(route_probs, bundle.a1))


def _sample_gaussian(rngs, mu: np.ndarray, lo: float, hi: float) -> np.ndarray:
    draws = np.array([rngs[j].normal(mu[j], ACTION_STD) for j in range(len(mu))])
    return np.clip(draws, lo, hi)


def act(store, features, rngs) -> ActionBundle:
    """Sampled pass: an ActionBundle drawn from the per-task streams rngs."""
    _, decision, masked, route_probs = _trunk(store, features)
    k = len(masked.value)
    if len(rngs) != k:
        raise ValueError("sampling needs one rng stream per task")
    a1 = np.array([_sample_source(rngs[j], route_probs.value[j], masked.value[j])
                   for j in range(k)])
    mu_kc, op_probs, mu_f, mu_cr = (h.value for h in _heads(store, decision, a1))
    a2 = _sample_gaussian(rngs, mu_kc[:, 0], 0.0, 0.5)
    a31 = np.array([_sample_categorical(rngs[j], op_probs[j]) for j in range(k)]) + 1
    a32 = _sample_gaussian(rngs, mu_f[:, 0], 0.0, 1.0)
    a33 = _sample_gaussian(rngs, mu_cr[:, 0], 0.0, 1.0)
    return ActionBundle(a1, a2, a31, a32, a33)


def act_with_context(store, features, forced_a1):
    """Deterministic pass: (ActionBundle, masked routing scores), the scores
    being the (K, K) pre-softmax matrix with -inf on the diagonal.  Routes
    by forced_a1 when given, else by the row argmax (ties to the lowest
    index), and draws no randomness.
    """
    _, decision, masked, _ = _trunk(store, features)
    if forced_a1 is None:
        a1 = np.argmax(masked.value, axis=1)
    else:
        a1 = np.asarray(forced_a1, dtype=int)
    mu_kc, op_probs, mu_f, mu_cr = (h.value for h in _heads(store, decision, a1))
    return ActionBundle(a1, mu_kc[:, 0], np.argmax(op_probs, axis=1) + 1,
                        mu_f[:, 0], mu_cr[:, 0]), masked.value


def _critic(store, e: Node) -> Node:
    hidden = tape.relu(dense(store, "critic1", tape.mean_axis(e, axis=-2)))
    return dense(store, "critic2", hidden)


def critic_value(store, features) -> Node:
    """Scalar state value: MLP over the mean task embedding."""
    return _critic(store, embed(store, features))


def _entropy(probs: Node) -> Node:
    # -sum p log(p + tiny); the tiny offset keeps masked zeros exact
    safe = tape.log(tape.add(probs, constant(1e-12)))
    return tape.scale(tape.sum_all(tape.mul(probs, safe)), -1.0)


def evaluate_actions(store, features, bundle: ActionBundle):
    """Joint log-probability of a bundle (routing included), the state
    value and the routing-plus-operator entropy, on the gradient tape,
    through the same trunk and heads that acting uses: three 1x1 nodes for
    (K, 5) features and a bundle of (K,) fields, or three (T, 1, 1) nodes,
    one entry per transition, for (T, K, 5) features and (T, K) fields."""
    e, decision, _, route_probs = _trunk(store, features)
    heads = _heads(store, decision, np.asarray(bundle.a1, dtype=int))
    entropy = tape.add(_entropy(route_probs), _entropy(heads[1]))
    return _log_prob(heads, bundle, route_probs), _critic(store, e), entropy
