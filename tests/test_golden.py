"""Fixed-seed golden digests of end-to-end outputs.

A change that claims to keep behaviour must keep these bytes.  A
deliberate behaviour change (a new RNG stream contract, a different
network) updates the digests in the same change and says so in
CHANGES.md.  The digests are of float64 results written with repr, so a
numpy or BLAS build that rounds a matrix product differently changes
them too.  TRAIN_VALUES_SHA256 covers the trained parameter values
alone, so it holds across checkpoint format versions; the checkpoint
digest covers the written bytes.
"""

import hashlib

import numpy as np

from emtlab import benchmarks as B
from emtlab import cli
from emtlab import harness as H
from emtlab import ppo
from emtlab.nn.params import load_checkpoint, save_checkpoint
from emtlab.policy import init_policy

EVAL_TRACE_SHA256 = "ada930f8fea7990c3a972132023cc8706982091bbf9cf8321cd817d3c1e24bd8"
RANDOM_ALL_TRACE_SHA256 = "abe27735e2681c6a6bf1f6727c427d22b64cc755d38e4aff7c1f8e4fa4c40182"
EVAL_RESULTS_SHA256 = "30f1225b693e7277ad17238b71bf497c5d31b421c43ff1709c1c60981dff9fd0"
RANDOM_ALL_RESULTS_SHA256 = "a30657076dc6701955316e97bf40fc48fbdac92c16bcd758a8f96eeb28228194"
ATTENTION_SHA256 = "77b08c5d8a2458145f88054859cb63165776436d7c5cf953bd95e4d11112e58f"
TRAIN_VALUES_SHA256 = "84e5ec3a7bca64e3488ab7c86009319d0c04d62844a42e8ed0484f3d482a6d14"
TRAIN_CHECKPOINT_SHA256 = "adafb1786b041dbf5c7bda59012436a29df728f39582a5ba13aa6187c54dcbbf"
COMPARE_REPORT_SHA256 = "3b108c53d8936a1a714e0b6c8190d88a2326b07524d3622b139ba3df375dcaf6"
WEIERSTRASS_VALUES_SHA256 = "5c0b8348e2663537632af7937d5855ed880d849a70e741a1c5738ef161029677"
WEIERSTRASS_TRACE_SHA256 = "5eaeaedfc890a88985a25a4203c0de1131151bded4824b978939aa0f20ad7437"


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _values_sha256(store):
    """SHA-256 over the sorted names of each UTF-8 name followed by the
    raw bytes of its C-ordered float64 values."""
    digest = hashlib.sha256()
    for name in sorted(store.params):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(store[name].value).tobytes())
    return digest.hexdigest()


def _instances(count):
    return B.sample_instances(0.2, seed=3, n_tasks=3, dim=4, count=count)


def _eval_sha256(variant, instances, tmp_path):
    """Digests of the (results.csv, trace.csv) an evaluation writes."""
    controller = H.Controller(init_policy(0), variant)
    rows, episodes = H.evaluate(controller, instances, runs=2,
                                master_seed=0, pop_size=8, budget=10,
                                collect_trace=True)
    results, trace = tmp_path / "results.csv", tmp_path / "trace.csv"
    H.write_results_csv(rows, str(results))
    H.write_trace_csv([(r.run_index, ep) for r, ep in zip(rows, episodes)],
                      str(trace))
    return _sha256(results), _sha256(trace)


def test_deterministic_eval_trace(tmp_path):
    # this policy uses operators 1, 3 and 4 with two transfers per task
    assert _eval_sha256("full", _instances(2), tmp_path)[1] == EVAL_TRACE_SHA256


def test_deterministic_eval_results(tmp_path):
    # perf and kt_success_ratio read the episode's transfer tally
    assert _eval_sha256("full", _instances(2), tmp_path)[0] == EVAL_RESULTS_SHA256


def test_random_all_eval_trace(tmp_path):
    # random substitutes reach all four operators and every transfer count
    # from a single elite (m_kt = 1) to full transfer (m_kt = N)
    assert _eval_sha256("random_all", _instances(2), tmp_path)[1] == RANDOM_ALL_TRACE_SHA256


def test_random_all_eval_results(tmp_path):
    assert _eval_sha256("random_all", _instances(2), tmp_path)[0] == RANDOM_ALL_RESULTS_SHA256


def test_weierstrass_values():
    z = np.random.default_rng(0).uniform(-1.2, 1.2, (50, 50))
    values = B.evaluate_basic_batch(B.BasicFunction.WEIERSTRASS, z)
    assert hashlib.sha256(values.tobytes()).hexdigest() == WEIERSTRASS_VALUES_SHA256


def test_weierstrass_eval_trace(tmp_path):
    # awcci-m-c017: one Rosenbrock and two Weierstrass tasks
    instance = _instances(10)[1]
    assert B.BasicFunction.WEIERSTRASS in {st.function for st in instance.sub_tasks}
    trace_sha256 = _eval_sha256("full", [instance], tmp_path)[1]
    assert trace_sha256 == WEIERSTRASS_TRACE_SHA256


def test_compare_report():
    # 2 instances x 4 runs: enough paired runs for the overall signed-rank
    # p-value, too few for the per-instance ones
    rows = {}
    for variant in ("full", "random_all"):
        rows[variant], _ = H.evaluate(H.Controller(init_policy(0), variant),
                                      _instances(2), runs=4, master_seed=0,
                                      pop_size=8, budget=10)
    text = H.compare_results(rows["full"], rows["random_all"], "full",
                             "random_all")
    assert "overall signed-rank: statistic=" in text
    assert hashlib.sha256(text.encode()).hexdigest() == COMPARE_REPORT_SHA256


def test_export_attention(tmp_path):
    # routing scores of run 0 of the first instance, through the command
    checkpoint, dataset = tmp_path / "checkpoint.json", tmp_path / "set.jsonl"
    out = tmp_path / "attention.csv"
    save_checkpoint(init_policy(0), str(checkpoint))
    B.save_instances(_instances(2), str(dataset))
    cli.main(["export-attention", "--checkpoint", str(checkpoint),
              "--instance", str(dataset), "--seed", "0", "--pop-size", "8",
              "--budget", "10", "--out", str(out)])
    assert _sha256(out) == ATTENTION_SHA256


def test_one_epoch_training_checkpoint(tmp_path):
    # a nonzero entropy coefficient puts the entropy terms on the graph
    config = ppo.PPOConfig(epochs=1, budget=10, t_ppo=5, k_ppo=2,
                           entropy_coef=0.01)
    result = ppo.train(_instances(1), config, seed=0, pop_size=8,
                       out_dir=str(tmp_path))
    assert len(result.log) == 1
    path = tmp_path / "checkpoint.json"
    assert _values_sha256(load_checkpoint(str(path))) == TRAIN_VALUES_SHA256
    assert _sha256(path) == TRAIN_CHECKPOINT_SHA256
