"""Evaluation and experiment layer: controllers (trained policy plus
ablation/control variants), episode running, normalized performance,
transfer-quality metrics, and result file I/O.

Seed schedule: every episode seed is derived from
(master_seed, "eval", instance_id, run_index), so adding instances or
runs never perturbs existing ones.
"""

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .engine import (TRACE_COLUMNS, emt_step, extract_state, init_populations,
                     trace_rows)
from .policy import act_with_context
from .seeds import derive_rng, derive_seed
from .stats import wilcoxon_signed_rank

log = logging.getLogger(__name__)

ABLATION_VARIANTS = ("full", "no_tr", "no_kc", "no_op", "no_f", "no_cr",
                     "random_all", "no_transfer")


class Controller:
    """A policy with optionally substituted components.

    Variants replace exactly one decision (controls replace several):
      no_tr       uniform random source task (never self)
      no_kc       transfer proportion drawn uniformly from [0, 1]
      no_op       uniform random mutation operator
      no_f        mutation strength fixed at 0.5
      no_cr       crossover rate fixed at 0.5
      random_all  all five substitutions at once (un-learned control)
      no_transfer transfer proportion forced to 0 (independent-DE control)

    Substituted random values come from a dedicated ablation stream, so
    the remaining heads see exactly the inputs the full policy would see
    given the substituted routing.  Note no_kc intentionally exceeds the
    policy's own [0, 0.5] proportion bound; the engine caps the transfer
    count at the population size.
    """

    def __init__(self, store, variant: str = "full"):
        if variant not in ABLATION_VARIANTS:
            raise ValueError(f"unknown variant: {variant!r}, "
                             f"expected one of {ABLATION_VARIANTS}")
        self.store = store
        self.variant = variant

    def act(self, features, mode="deterministic", rngs=None, ablation_rng=None):
        k = np.atleast_2d(features).shape[0]
        v = self.variant
        if v in ("no_tr", "no_kc", "no_op", "random_all") and ablation_rng is None:
            raise ValueError(f"variant {v} needs an ablation rng")
        forced_a1 = None
        if v in ("no_tr", "random_all"):
            r = ablation_rng.integers(0, k - 1, size=k)
            forced_a1 = np.where(r < np.arange(k), r, r + 1)
        bundle, scores = act_with_context(self.store, features, mode, rngs,
                                          forced_a1=forced_a1)
        if v in ("no_kc", "random_all"):
            bundle.a2 = ablation_rng.uniform(0.0, 1.0, size=k)
        if v in ("no_op", "random_all"):
            bundle.a31 = ablation_rng.integers(1, 5, size=k)
        if v in ("no_f", "random_all"):
            bundle.a32 = np.full(k, 0.5)
        if v in ("no_cr", "random_all"):
            bundle.a33 = np.full(k, 0.5)
        if v == "no_transfer":
            bundle.a2 = np.zeros(k)
        return bundle, scores


def kt_success_ratio(history) -> float:
    """Mean over generations of the survival fraction of transferred
    solutions (pooled over tasks); generations without transfers are
    skipped, and a run with no transfers at all scores 0."""
    ratios = []
    for n_transfer, n_success in history:
        total = int(n_transfer.sum())
        if total > 0:
            ratios.append(int(n_success.sum()) / total)
    return float(np.mean(ratios)) if ratios else 0.0


def normalized_ratios(final_best, f0):
    """Elementwise f^G / f^0, clamped to [0, 1]; the optimum f* is 0 for
    every generated sub-task.

    Degenerate normalizers give 0 when the final value already equals the
    optimum and 1 otherwise; raw ratios above 1 are logged and clamped.
    """
    final_best = np.asarray(final_best, dtype=np.float64)
    f0 = np.asarray(f0, dtype=np.float64)
    degenerate = np.abs(f0) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(degenerate, np.where(np.abs(final_best) < 1e-12, 0.0, 1.0),
                       final_best / np.where(degenerate, 1.0, f0))
    if np.any(out > 1.0 + 1e-12):
        log.warning("normalized ratio above 1 (worst %.3g); optimum bound "
                    "missed, clamping", float(out.max()))
    return np.clip(out, 0.0, 1.0)


@dataclass
class EpisodeResult:
    instance_id: str
    best_trace: np.ndarray          # (G+1, K) best-so-far, row 0 = initial
    f0: np.ndarray                  # (K,)
    kt_ratio: float
    rewards: list
    trace: list = field(default_factory=list)
    attention: list = field(default_factory=list)

    @property
    def final_best(self) -> np.ndarray:
        return self.best_trace[-1]


def run_episode(instance, controller: Controller, episode_seed: int,
                pop_size: int, budget: int, mode: str = "deterministic",
                collect_trace: bool = False,
                collect_attention: bool = False) -> EpisodeResult:
    """One full optimization run of an instance under a controller."""
    state = init_populations(instance, pop_size,
                             derive_seed(episode_seed, "engine"), budget)
    k = instance.n_tasks
    rngs = None
    if mode == "sample":
        rngs = [derive_rng(episode_seed, "sample", j) for j in range(k)]
    ablation_rng = derive_rng(episode_seed, "ablation")
    best_trace = np.empty((budget + 1, k))
    best_trace[0] = state.best_values()
    rewards = []
    result = EpisodeResult(instance.instance_id, best_trace,
                           state.f0.copy(), 0.0, rewards)
    for t in range(1, budget + 1):
        features = extract_state(state)
        bundle, scores = controller.act(features, mode, rngs, ablation_rng)
        reward, info = emt_step(state, bundle)
        rewards.append(reward)
        best_trace[t] = state.best_values()
        if collect_trace:
            result.trace.extend(trace_rows(t, features, state, bundle, info))
        if collect_attention:
            result.attention.append(scores)
    result.kt_ratio = kt_success_ratio(state.transfers)
    return result


@dataclass
class EvaluationRow:
    instance_id: str
    run_index: int
    perf: float
    perf_tasks: np.ndarray
    kt_success_ratio: float


def evaluate(controller: Controller, instances, runs: int, master_seed: int,
             pop_size: int, budget: int, collect_trace: bool = False):
    """Deterministic-policy evaluation: one row per (instance, run).

    Returns (rows, episodes).  perf for a row is the mean over tasks of
    the normalized final objective for that run; aggregating rows gives
    the run-averaged per-task metric.
    """
    rows = []
    episodes = []
    for inst in instances:
        for r in range(runs):
            ep_seed = derive_seed(master_seed, "eval", inst.instance_id, r)
            ep = run_episode(inst, controller, ep_seed, pop_size, budget,
                             collect_trace=collect_trace)
            ratios = normalized_ratios(ep.final_best, ep.f0)
            rows.append(EvaluationRow(inst.instance_id, r, float(ratios.mean()),
                                      ratios, ep.kt_ratio))
            episodes.append(ep)
    return rows, episodes


def mean_perf(rows) -> float:
    return float(np.mean([r.perf for r in rows]))


def instance_summary(rows):
    """Run-averaged metrics per instance: {instance_id: (perf_tasks, perf)}
    where perf_tasks[j] is the mean over runs of task j's normalized final
    objective and perf is the task mean of that."""
    grouped = {}
    for r in rows:
        grouped.setdefault(r.instance_id, []).append(r.perf_tasks)
    out = {}
    for instance_id, stacks in grouped.items():
        per_task = np.mean(np.stack(stacks), axis=0)
        out[instance_id] = (per_task, float(per_task.mean()))
    return out


def write_results_csv(rows, path: str) -> None:
    if not rows:
        raise ValueError("no rows to write")
    k = len(rows[0].perf_tasks)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "run", "perf", "kt_success_ratio"]
                        + [f"perf_task_{j}" for j in range(k)])
        for r in rows:
            writer.writerow([r.instance_id, r.run_index, repr(r.perf),
                             repr(r.kt_success_ratio)]
                            + [repr(float(v)) for v in r.perf_tasks])


def read_results_csv(path: str):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            task_cols = sorted((c for c in rec if c.startswith("perf_task_")),
                               key=lambda c: int(c.rsplit("_", 1)[1]))
            rows.append(EvaluationRow(
                rec["instance_id"], int(rec["run"]), float(rec["perf"]),
                np.array([float(rec[c]) for c in task_cols]),
                float(rec["kt_success_ratio"])))
    return rows


def write_trace_csv(episodes, path: str) -> None:
    """Per-run trace: convergence plus features, transfer counts, and the
    applied action for every (generation, task)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "run"] + TRACE_COLUMNS)
        for run_index, ep in episodes:
            for row in ep.trace:
                writer.writerow([ep.instance_id, run_index] + row)


def write_attention_csv(scores_per_generation, path: str) -> None:
    """Long-format export of masked pre-softmax routing scores."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "target_task", "source_task", "score"])
        for t, scores in enumerate(scores_per_generation, start=1):
            k = scores.shape[0]
            for j in range(k):
                for m in range(k):
                    writer.writerow([t, j, m, repr(float(scores[j, m]))])


def compare_results(rows_a, rows_b, label_a: str = "A", label_b: str = "B") -> str:
    """Per-instance win/tie/loss on mean perf plus signed-rank tests.

    Lower perf wins.  The per-instance test uses that instance's paired
    runs; the overall test pools every paired run.
    """
    by_key_a = {(r.instance_id, r.run_index): r.perf for r in rows_a}
    by_key_b = {(r.instance_id, r.run_index): r.perf for r in rows_b}
    shared = sorted(set(by_key_a) & set(by_key_b))
    if not shared:
        raise ValueError("result files share no (instance, run) pairs")
    instances = sorted({k[0] for k in shared})
    lines = [f"comparison: {label_a} vs {label_b} (lower perf wins)",
             f"paired runs: {len(shared)}", ""]
    wins = ties = losses = 0
    for inst in instances:
        pa = np.array([by_key_a[k] for k in shared if k[0] == inst])
        pb = np.array([by_key_b[k] for k in shared if k[0] == inst])
        if pa.mean() < pb.mean():
            wins += 1
            verdict = "win"
        elif pa.mean() > pb.mean():
            losses += 1
            verdict = "loss"
        else:
            ties += 1
            verdict = "tie"
        try:
            _, p = wilcoxon_signed_rank(pa, pb)
            p_text = f"p={p:.4g}"
        except ValueError as err:
            p_text = f"p=n/a ({err})"
        lines.append(f"  {inst}: mean {pa.mean():.4f} vs {pb.mean():.4f} "
                     f"[{verdict}, {p_text}]")
    all_a = np.array([by_key_a[k] for k in shared])
    all_b = np.array([by_key_b[k] for k in shared])
    lines.append("")
    lines.append(f"instances: {wins} wins / {ties} ties / {losses} losses "
                 f"for {label_a}")
    try:
        stat, p = wilcoxon_signed_rank(all_a, all_b)
        lines.append(f"overall signed-rank: statistic={stat:.1f}, p={p:.4g}")
    except ValueError as err:
        lines.append(f"overall signed-rank: n/a ({err})")
    lines.append(f"overall mean perf: {label_a}={all_a.mean():.4f}, "
                 f"{label_b}={all_b.mean():.4f}")
    return "\n".join(lines) + "\n"
