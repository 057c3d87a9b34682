"""Smoke test of the benchmark at tiny sizes (a few generations).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a failing output check counts against `failed`, and that the
benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402  (pins BLAS threads before numpy is used)
from emtlab import harness, ppo  # noqa: E402

TINY = dict(n_tasks=2, dim=3, pop_size=4, budget=3, setup_repeats=2)
TINY_CONFIGS = {
    "train-desk": dict(TINY, epochs=2, t_ppo=2, k_ppo=1, policies=2),
    "eval-paper": dict(TINY),
    "ablate-desk": dict(TINY, instances=2, runs=3),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny_run(workload, tmp_path, trace=0):
    return run.run(workload, seed=3, seconds=0, trace=trace,
                   overrides=TINY_CONFIGS[workload],
                   out_dir=str(tmp_path / workload), log=lambda msg: None)


def emitted(record):
    return json.loads(run.result_line(record))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload, tmp_path):
    record = tiny_run(workload, tmp_path)
    out = emitted(record)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for m in out["metrics"].values():
        assert np.isfinite(m["value"]) and m["value"] > 0
    assert record["failed_frac"] == 0.0
    assert record["digests"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_emitted_with_units(workload, tmp_path):
    record = tiny_run(workload, tmp_path, trace=1)
    out = emitted(record)
    assert out["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    assert 0.0 < record["metrics"]["trace.coverage"] <= 1.0
    assert os.path.getsize(tmp_path / workload / "spans.csv") > 0


def test_bad_perf_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "normalized_ratios",
                        lambda final_best, f0: np.full(len(f0), np.nan))
    record = tiny_run("eval-paper", tmp_path)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0
    assert record["failed_frac"] == 1.0


def test_skipped_training_episode_counts_as_failed(tmp_path, monkeypatch):
    original = ppo.run_training_episode
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise FloatingPointError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(ppo, "run_training_episode", flaky)
    record = tiny_run("train-desk", tmp_path)
    assert not record["correct"]
    assert record["failed"] == 1 and record["attempted"] == 4
    assert record["failed_frac"] == 0.25


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "eval-paper", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
