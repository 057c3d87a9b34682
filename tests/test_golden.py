"""Fixed-seed golden digests of two end-to-end outputs.

A change that claims to keep behaviour must keep these bytes.  A
deliberate behaviour change (a new RNG stream contract, a different
network) updates the digests in the same change and says so in
CHANGES.md.  The digests are of float64 results written with repr, so a
numpy or BLAS build that rounds a matrix product differently changes
them too.
"""

import hashlib

from emtlab import benchmarks as B
from emtlab import harness as H
from emtlab import ppo
from emtlab.policy import init_policy

EVAL_TRACE_SHA256 = "ada930f8fea7990c3a972132023cc8706982091bbf9cf8321cd817d3c1e24bd8"
TRAIN_CHECKPOINT_SHA256 = "53357f70e6de6190bfe83be8fcf3fda5905b3c85dec9658a43e01c2d77238bc2"


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _instances(count):
    return B.sample_instances(0.2, seed=3, n_tasks=3, dim=4, count=count)


def test_deterministic_eval_trace(tmp_path):
    controller = H.Controller(init_policy(0), "full")
    rows, episodes = H.evaluate(controller, _instances(2), runs=2,
                                master_seed=0, pop_size=8, budget=10,
                                collect_trace=True)
    path = tmp_path / "trace.csv"
    H.write_trace_csv([(r.run_index, ep) for r, ep in zip(rows, episodes)],
                      str(path))
    assert _sha256(path) == EVAL_TRACE_SHA256


def test_one_epoch_training_checkpoint(tmp_path):
    # a nonzero entropy coefficient puts the entropy terms on the graph
    config = ppo.PPOConfig(epochs=1, budget=10, t_ppo=5, k_ppo=2,
                           entropy_coef=0.01)
    result = ppo.train(_instances(1), config, seed=0, pop_size=8,
                       out_dir=str(tmp_path))
    assert len(result.log) == 1
    assert _sha256(tmp_path / "checkpoint.json") == TRAIN_CHECKPOINT_SHA256
