"""The three benchmark workloads, their timed loop and their output checks.

Each workload drives the public functions the `emtlab` CLI subcommands
call.  A workload has a pinned instance set (generated from DATASET_SEED,
never from the run's seed) and three phases:

  prepare  write the fixture files: a dataset file, and for the eval
           workloads a checkpoint of init_policy(POLICY_SEED)
  setup    what a user pays before the first episode: load the dataset
           file and the checkpoint (train: init_policy instead, once per
           initial policy); done `setup_repeats` times before the first
           round and again after every round, so that the median,
           `setup_s`, samples the machine across the whole run
  round    one fixed unit of work, repeated until the run's seconds are
           used up.  Every round of a run uses the run's seed, so rounds
           repeat the same computation and must write identical outputs.

All workloads are closed-loop and single-process: the next episode starts
when the previous one returns.
"""

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from emtlab import benchmarks, harness, policy, ppo
from emtlab.nn import params
from emtlab.seeds import derive_seed

LEVEL = "m"
DATASET_SEED = 2025          # pins the instance sets of all workloads
HELD_OUT_SEED = 2026         # pins the ablate-desk held-out set
POLICY_SEED = 0              # pins the eval workloads' checkpoint

DESK = dict(n_tasks=5, dim=10, pop_size=30, budget=100)
PAPER = dict(n_tasks=10, dim=50, pop_size=50, budget=250)

CONFIGS = {
    # ppo.train as `emtlab train` runs it, once from each of `policies`
    # initial policies init_policy(derive_seed(seed, "train", i))
    "train-desk": dict(DESK, kind="train", instances=1, epochs=2, t_ppo=10,
                       k_ppo=3, policies=4, setup_repeats=10),
    # harness.evaluate of an init_policy checkpoint on a full level file,
    # as `emtlab evaluate` runs it
    "eval-paper": dict(PAPER, kind="eval", runs=1, setup_repeats=1),
    # three controllers on one held-out set, then paired comparisons, as
    # `emtlab ablate` + `emtlab compare` run them
    "ablate-desk": dict(DESK, kind="ablate", instances=4, runs=2,
                        variants=("full", "random_all", "no_transfer"),
                        setup_repeats=10),
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def covering_subset(instances):
    """Instances taken from the end of the level file (the largest
    function combinations), keeping each one that adds a base function
    not yet present, until all seven are present."""
    seen = set()
    picked = []
    for inst in reversed(instances):
        functions = {st.function for st in inst.sub_tasks}
        if functions - seen:
            picked.append(inst)
            seen |= functions
        if len(seen) == len(benchmarks.BasicFunction):
            return picked[::-1]
    raise ValueError("level file does not use all seven base functions")


class Workload:
    """Fixture files, set-up and one round of one workload."""

    def __init__(self, name, seed, out_dir, overrides=None):
        self.cfg = dict(CONFIGS[name], **(overrides or {}))
        self.seed = seed
        self.out = out_dir
        self.dataset_path = os.path.join(out_dir, "dataset.jsonl")
        self.checkpoint_path = os.path.join(out_dir, "policy.json")
        self.instances = None
        self.store = None

    def path(self, name):
        return os.path.join(self.out, name)

    def prepare(self):
        c = self.cfg
        level = benchmarks.SHIFT_LEVELS[LEVEL]
        if c["kind"] == "eval":
            instances = benchmarks.generate_awcci(level, DATASET_SEED,
                                                  c["n_tasks"], c["dim"])
        else:
            seed = DATASET_SEED if c["kind"] == "train" else HELD_OUT_SEED
            instances = benchmarks.sample_instances(
                level, seed, c["n_tasks"], c["dim"], c["instances"])
        benchmarks.save_instances(instances, self.dataset_path)
        if c["kind"] != "train":
            params.save_checkpoint(policy.init_policy(POLICY_SEED),
                                   self.checkpoint_path)

    def setup(self):
        """Returns the seconds it took; leaves the loaded inputs behind."""
        self.instances = self.store = None
        start = time.perf_counter()
        instances = benchmarks.load_instances(self.dataset_path)
        if self.cfg["kind"] == "train":
            store = [policy.init_policy(seed) for seed in self.train_seeds()]
        else:
            store = params.load_checkpoint(self.checkpoint_path)
        elapsed = time.perf_counter() - start
        if self.cfg["kind"] == "eval":
            instances = covering_subset(instances)
        self.instances, self.store = instances, store
        return elapsed

    def round(self):
        """One unit of work; returns its RoundOutput."""
        return getattr(self, "_round_" + self.cfg["kind"])()

    def train_seeds(self):
        return [derive_seed(self.seed, "train", i)
                for i in range(self.cfg["policies"])]

    def _round_train(self):
        c = self.cfg
        config = ppo.PPOConfig(t_ppo=c["t_ppo"], k_ppo=c["k_ppo"],
                               epochs=c["epochs"], budget=c["budget"])
        out = RoundOutput()
        for i, seed in enumerate(self.train_seeds()):
            out_dir = self.path(f"train_{i}")
            os.makedirs(out_dir, exist_ok=True)
            result = ppo.train(self.instances, config, seed,
                               pop_size=c["pop_size"], out_dir=out_dir)
            ppo.write_training_log(result.log,
                                   os.path.join(out_dir, "training_log.csv"))
            ckpt = os.path.join(out_dir, "checkpoint.json")
            out.files.append(ckpt)
            out.train_log_rows += len(result.log)
            out.checkpoints.append(ckpt)
        return out

    def _evaluate(self, variant, tag):
        c = self.cfg
        controller = harness.Controller(self.store, variant)
        rows, episodes = harness.evaluate(controller, self.instances,
                                          c["runs"], self.seed, c["pop_size"],
                                          c["budget"], collect_trace=True)
        results = self.path(f"results{tag}.csv")
        trace = self.path(f"trace{tag}.csv")
        harness.write_results_csv(rows, results)
        paired = [(row.run_index, ep) for row, ep in zip(rows, episodes)]
        harness.write_trace_csv(paired, trace)
        return rows, [results, trace]

    def _round_eval(self):
        rows, files = self._evaluate("full", "")
        return RoundOutput(files, rows=rows)

    def _round_ablate(self):
        variants = self.cfg["variants"]
        out = RoundOutput()
        for variant in variants:
            rows, files = self._evaluate(variant, "_" + variant)
            out.rows.extend(rows)
            out.files.extend(files)
        base = self.path(f"results_{variants[0]}.csv")
        for other in variants[1:]:
            rows_a = harness.read_results_csv(base)
            rows_b = harness.read_results_csv(self.path(f"results_{other}.csv"))
            text = harness.compare_results(rows_a, rows_b, variants[0], other)
            with open(self.path(f"compare_{other}.txt"), "w") as fh:
                fh.write(text)
            out.comparisons.append((other, rows_a + rows_b, text))
        return out


@dataclass
class RoundOutput:
    """What a round wrote, and what the output checks need."""
    files: list = field(default_factory=list)     # output files to digest
    rows: list = field(default_factory=list)      # harness EvaluationRows
    train_log_rows: int = 0
    checkpoints: list = field(default_factory=list)
    comparisons: list = field(default_factory=list)
    perf: float = None
    digests: dict = None                           # {output file: sha256}


# --- output checks ----------------------------------------------------------

def _unit_interval(values):
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0.0)
                and np.all(values <= 1.0))


def check_episode(ep, cfg):
    """Problems with one episode's outputs, as a list of messages."""
    if ep.error is not None:
        return [f"raised {ep.error}"]
    problems = []
    state = ep.state
    k = state.n_tasks
    expected = k * cfg["pop_size"] * (cfg["budget"] + 1)
    if state.evaluations != expected:
        problems.append(f"{state.evaluations} objective evaluations, "
                        f"expected K*N*(G+1) = {expected}")
    best = state.best_values()
    if not np.all(np.isfinite(best)):
        problems.append("non-finite best-so-far")
    if np.any(best > state.f0) or any(p.best_value > p.fitness.min()
                                      for p in state.populations):
        problems.append("best-so-far increased")
    if ep.kind == "eval":
        trace = ep.result.best_trace
        if not np.all(np.isfinite(trace)) or np.any(np.diff(trace, axis=0) > 0):
            problems.append("best-so-far trace is non-finite or increases")
        if len(ep.result.trace) != cfg["budget"] * k:
            problems.append(f"{len(ep.result.trace)} trace rows, expected G*K")
    else:
        if not all(math.isfinite(v) for v in ep.result):
            problems.append(f"non-finite episode return {ep.result}")
        if not _unit_interval(harness.normalized_ratios(best, state.f0)):
            problems.append("normalized performance outside [0, 1]")
    return problems


def check_round(out, episodes, cfg):
    """Problems with a whole round, and with each episode of it: returns
    (round-level messages, one list of messages per episode).  Result
    rows of eval rounds pair up with the round's episodes in order."""
    problems = []
    per_episode = [check_episode(ep, cfg) for ep in episodes]
    if out.rows and len(out.rows) != len(episodes):
        problems.append(f"{len(out.rows)} result rows for "
                        f"{len(episodes)} episodes")
    for row, ep_problems in zip(out.rows, per_episode):
        if not (_unit_interval([row.perf]) and _unit_interval(row.perf_tasks)
                and len(row.perf_tasks) == cfg["n_tasks"]):
            ep_problems.append(f"perf of run {row.run_index} is non-finite "
                               "or outside [0, 1]")
    # ppo.train logs one row per episode and skips (and logs no row for)
    # an episode that raised; check_episode already failed those
    completed = sum(1 for ep in episodes if ep.error is None)
    if out.checkpoints and out.train_log_rows != completed:
        problems.append(f"training logs have {out.train_log_rows} rows for "
                        f"{completed} completed episodes")
    for path in out.checkpoints:
        with open(path) as fh:
            doc = json.load(fh)
        values = [v for rec in doc["parameters"] for v in rec["values"]]
        if not values or not all(math.isfinite(v) for v in values):
            problems.append(f"final checkpoint {path} has non-finite "
                            "parameters")
    for other, rows, text in out.comparisons:
        if f"paired runs: {len(rows) // 2}\n" not in text:
            problems.append(f"comparison with {other} lost paired runs")
    return problems, per_episode


def round_perf(out, episodes):
    """Mean normalized performance (lower is better): of the result rows
    for eval rounds, of the final best-so-far of the sampled-policy
    episodes for training rounds."""
    if out.rows:
        return harness.mean_perf(out.rows)
    return float(np.mean([harness.normalized_ratios(ep.state.best_values(),
                                                    ep.state.f0).mean()
                          for ep in episodes if ep.state is not None]))


# --- the timed loop -----------------------------------------------------------

@dataclass
class RoundTiming:
    start: float
    end: float
    cpu: float
    traced: bool
    episodes: list
    failed: int


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def setups(work):
    return [work.setup() for _ in range(work.cfg["setup_repeats"])]


def run_loop(work, probe, tracer, seconds, setup_times, log):
    """Rounds while one more round is expected to bring the rounds' total
    time nearer to `seconds` than stopping now (at least one; with a
    tracer, untraced and traced rounds alternate and at least one of each
    runs).  After each round the set-up is timed again, into
    `setup_times`; that time does not count towards `seconds`.

    Returns (round timings, first round's output, failure messages).
    """
    rounds = []
    failures = []
    first = None
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        seen = len(probe.episodes)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = work.round()
        finally:
            t1 = time.perf_counter()
            cpu = time.process_time() - c0
            if traced:
                tracer.uninstall()
        episodes = probe.episodes[seen:]
        out.digests = {os.path.relpath(f, work.out): sha256(f)
                       for f in out.files}
        problems, per_episode = check_round(out, episodes, work.cfg)
        if first is None:
            first = out
            first.perf = round_perf(out, episodes)
        elif out.digests != first.digests:
            problems.append("outputs differ from the first round's")
        n = len(rounds) + 1
        failures.extend(f"round {n}: {p}" for p in problems)
        for ep, ep_problems in zip(episodes, per_episode):
            failures.extend(f"round {n} episode {ep.instance_id}: {p}"
                            for p in ep_problems)
        failed = (len(episodes) if problems
                  else sum(1 for p in per_episode if p))
        for ep in episodes:
            ep.release()
        setup_times.extend(setups(work))
        rounds.append(RoundTiming(t0, t1, cpu, traced, episodes, failed))
        log(f"round {len(rounds)}{' traced' if traced else ''}: "
            f"{t1 - t0:.3f} s, {len(episodes)} episodes, {failed} failed")
        busy = sum(r.end - r.start for r in rounds)
        if (busy + busy / len(rounds) / 2 >= seconds
                and (tracer is None or len(rounds) >= 2)):
            return rounds, first, failures


def end_to_end(rounds, setup_times, perf, rss_mb):
    """End-to-end metrics of an untraced run."""
    episodes = [ep for r in rounds for ep in r.episodes]
    wall = sum(r.end - r.start for r in rounds)
    evals = sum(ep.evaluations for ep in episodes)
    steps_ms = [1e3 * d for ep in episodes for d in np.diff(ep.stamps)]
    return {
        "setup_s": statistics.median(setup_times),
        "evals_per_s": evals / wall,
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "episode_s.p50": statistics.median(ep.seconds for ep in episodes),
        "step_ms.p50": percentile(steps_ms, 50),
        "step_ms.p95": percentile(steps_ms, 95),
        "peak_rss_mb": rss_mb,
        "perf_mean": perf,
    }, len(steps_ms)
