"""Evaluation and experiment layer: controllers (trained policy plus
ablation/control variants), episode running, normalized performance,
transfer-quality metrics, and result and trace file I/O.

Seed schedule: every episode seed is derived from
(master_seed, "eval", instance_id, run_index), so adding instances or
runs never perturbs existing ones.
"""

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .engine import (NORMALIZER_TOL, OPERATORS, check_pop_size, emt_step,
                     extract_state, init_populations)
from .policy import act_with_context, init_policy
from .seeds import derive_rng, derive_seed
from .stats import wilcoxon_signed_rank

log = logging.getLogger(__name__)

ABLATION_VARIANTS = ("full", "no_tr", "no_kc", "no_op", "no_f", "no_cr",
                     "random_all", "no_transfer")
TRACE_COLUMNS = ["generation", "task", "best_so_far", "s1", "s2", "s3", "s4",
                 "s5", "n_transfer", "n_success", "source_task", "a2",
                 "op_id", "F", "Cr", "reward"]
_INT_COLUMNS = [TRACE_COLUMNS.index(c) for c in ("generation", "task", "n_transfer",
                                                 "n_success", "source_task", "op_id")]
_N_TRANSFER, _N_SUCCESS = (TRACE_COLUMNS.index(c) for c in ("n_transfer", "n_success"))


class Controller:
    """A deterministic policy with optionally substituted components.

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
    given the substituted routing; every variant takes the stream, and one
    without random substitutes draws nothing from it.  Note no_kc intentionally exceeds the
    policy's own [0, 0.5] proportion bound, within the engine's [0, 1].

    The store must have init_policy's parameter names and shapes; the
    first missing, unexpected or mis-shaped parameter raises ValueError.
    """

    def __init__(self, store, variant: str):
        if variant not in ABLATION_VARIANTS:
            raise ValueError(f"unknown variant: {variant!r}, "
                             f"expected one of {ABLATION_VARIANTS}")
        expected = {n: p.value.shape for n, p in init_policy(0).params.items()}
        found = {n: p.value.shape for n, p in store.params.items()}
        if found != expected:
            name = next(n for n in {**expected, **found}
                        if found.get(n) != expected.get(n))
            shape, want = found.get(name), expected.get(name)
            raise ValueError("parameters do not fit the policy network: " + (
                f"{name} (expected shape {want}) is missing" if shape is None
                else f"unexpected {name} (shape {shape})" if want is None
                else f"{name} has shape {shape}, expected {want}"))
        self.store = store
        self.variant = variant

    def act(self, features, ablation_rng):
        k = np.atleast_2d(features).shape[0]
        v = self.variant
        forced_a1 = None
        if v in ("no_tr", "random_all"):
            r = ablation_rng.integers(0, k - 1, size=k)
            forced_a1 = np.where(r < np.arange(k), r, r + 1)
        bundle, scores = act_with_context(self.store, features, forced_a1)
        if v in ("no_kc", "random_all"):
            bundle.a2 = ablation_rng.uniform(0.0, 1.0, size=k)
        if v in ("no_op", "random_all"):
            bundle.a31 = ablation_rng.integers(1, 1 + len(OPERATORS), size=k)
        if v in ("no_f", "random_all"):
            bundle.a32 = np.full(k, 0.5)
        if v in ("no_cr", "random_all"):
            bundle.a33 = np.full(k, 0.5)
        if v == "no_transfer":
            bundle.a2 = np.zeros(k)
        return bundle, scores


def kt_success_ratio(n_transfer, n_success) -> float:
    """Mean over generations of the survival fraction of transferred
    solutions, pooled over the tasks of (G, K) counts; generations without
    transfers are skipped, and a run with no transfers at all scores 0."""
    pooled = np.sum(n_transfer, axis=1)
    ratios = np.sum(n_success, axis=1)[pooled > 0] / pooled[pooled > 0]
    return float(ratios.mean()) if ratios.size else 0.0


def normalized_ratios(final_best, f0):
    """Elementwise f^G / f^0, clamped to [0, 1]; the optimum f* is 0 for
    every generated sub-task.

    Degenerate normalizers give 0 when the final value already equals the
    optimum and 1 otherwise; raw ratios above 1 are logged and clamped.
    """
    final_best = np.asarray(final_best, dtype=np.float64)
    f0 = np.asarray(f0, dtype=np.float64)
    valid = np.abs(f0) > NORMALIZER_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(valid, final_best / np.where(valid, f0, 1.0),
                       np.where(np.abs(final_best) > NORMALIZER_TOL, 1.0, 0.0))
    if np.any(out > 1.0 + 1e-12):
        log.warning("normalized ratio above 1 (worst %.3g); optimum bound "
                    "missed, clamping", float(out.max()))
    return np.clip(out, 0.0, 1.0)


@dataclass
class EpisodeResult:
    instance_id: str
    best_trace: np.ndarray          # (G+1, K) best-so-far, row 0 = initial f0
    kt_ratio: float
    trace: np.ndarray               # (G*K, len(TRACE_COLUMNS)) trace_rows blocks
    attention: np.ndarray           # (G, K, K) masked routing scores


def trace_rows(generation: int, features: np.ndarray, state, action,
               reward: np.ndarray) -> np.ndarray:
    """(K, len(TRACE_COLUMNS)) trace rows of the generation just executed,
    from the features it acted on; reward holds each task's R_c,j + R_k,j."""
    return np.column_stack([np.full_like(reward, generation), np.arange(len(reward)),
                            state.best, features, state.n_transfer, state.n_success,
                            action.a1, action.a2, action.a31, action.a32, action.a33,
                            reward])


def run_episode(instance, controller: Controller, episode_seed: int,
                pop_size: int, budget: int) -> EpisodeResult:
    """One full optimization run of an instance under a controller."""
    state = init_populations(instance, pop_size,
                             derive_seed(episode_seed, "engine"), budget)
    ablation_rng = derive_rng(episode_seed, "ablation")
    k = instance.n_tasks
    best_trace = np.empty((budget + 1, k))
    best_trace[0] = state.best
    trace = np.empty((budget, k, len(TRACE_COLUMNS)))
    attention = np.empty((budget, k, k))
    for t in range(1, budget + 1):
        features = extract_state(state)
        bundle, attention[t - 1] = controller.act(features, ablation_rng)
        _, rc, rk = emt_step(state, bundle)
        best_trace[t] = state.best
        trace[t - 1] = trace_rows(t, features, state, bundle, rc + rk)
    kt_ratio = kt_success_ratio(trace[..., _N_TRANSFER], trace[..., _N_SUCCESS])
    return EpisodeResult(instance.instance_id, best_trace, kt_ratio,
                         trace.reshape(-1, len(TRACE_COLUMNS)), attention)


def check_evaluation(runs: int, budget: int, pop_size: int) -> None:
    """Raises ValueError unless evaluate can run: at least one run of at
    least one generation, on populations DE/rand/1 can draw partners from."""
    for name, value in (("runs", runs), ("budget", budget)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    check_pop_size(pop_size)


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

    Returns (rows, episodes): episodes holds each row's EpisodeResult when
    collect_trace is set and is empty otherwise.  perf for a row is the
    mean over tasks of the normalized final objective for that run;
    aggregating rows gives the run-averaged per-task metric.
    """
    check_evaluation(runs, budget, pop_size)
    rows = []
    episodes = []
    for inst in instances:
        for r in range(runs):
            ep_seed = derive_seed(master_seed, "eval", inst.instance_id, r)
            ep = run_episode(inst, controller, ep_seed, pop_size, budget)
            # init_populations checked f0; a NaN final value would score 0
            if not np.isfinite(ep.best_trace[-1]).all():
                raise ValueError(f"instance {inst.instance_id} run {r}: final "
                                 "best-so-far is not finite")
            ratios = normalized_ratios(ep.best_trace[-1], ep.best_trace[0])
            rows.append(EvaluationRow(inst.instance_id, r, float(ratios.mean()),
                                      ratios, ep.kt_ratio))
            if collect_trace:
                episodes.append(ep)
    return rows, episodes


def mean_perf(rows) -> float:
    return float(np.mean([r.perf for r in rows]))


def write_results_csv(rows, path: str) -> None:
    if not rows:
        raise ValueError("no rows to write")
    k = len(rows[0].perf_tasks)
    for r in rows:   # the header has one perf_task column per task
        if len(r.perf_tasks) != k:
            raise ValueError(f"instance {r.instance_id} run {r.run_index} has "
                             f"{len(r.perf_tasks)} tasks, instance "
                             f"{rows[0].instance_id} run {rows[0].run_index} has {k}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "run", "perf", "kt_success_ratio"]
                        + [f"perf_task_{j}" for j in range(k)])
        for r in rows:
            writer.writerow([r.instance_id, r.run_index, repr(r.perf),
                             repr(r.kt_success_ratio)]
                            + [repr(float(v)) for v in r.perf_tasks])


def read_results_csv(path: str):
    """Rows of a file written by write_results_csv.  A missing or misnamed
    column, a line whose field count differs from the header's, a value
    that does not parse, a non-finite perf or kt_success_ratio and a
    repeated (instance_id, run) raise ValueError naming the file and line."""
    rows, seen = [], {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name in ("instance_id", "run", "perf", "kt_success_ratio"):
            if name not in header:
                raise ValueError(f"{path}, line 1: missing column {name}")
        try:
            task_cols = sorted((c for c in header if c.startswith("perf_task_")),
                               key=lambda c: int(c[len("perf_task_"):]))
        except ValueError as err:
            raise ValueError(f"{path}, line 1: {err}") from None
        for fields in filter(None, reader):     # blank lines hold no row
            where = f"{path}, line {reader.line_num}"
            if len(fields) != len(header):
                raise ValueError(f"{where}: {len(fields)} fields, the header "
                                 f"has {len(header)}")
            rec = dict(zip(header, fields))
            try:
                perf, ratio, *tasks = (float(rec[c]) for c in
                                       ["perf", "kt_success_ratio", *task_cols])
                row = EvaluationRow(rec["instance_id"], int(rec["run"]), perf,
                                    np.array(tasks), ratio)
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            for name, value in (("perf", perf), ("kt_success_ratio", ratio)):
                if not np.isfinite(value):
                    raise ValueError(f"{where}: {name} is {value}, expected a "
                                     "finite number")
            key = (row.instance_id, row.run_index)
            if key in seen:
                raise ValueError(f"{where}: instance {key[0]} run {key[1]} "
                                 f"repeats line {seen[key]}")
            seen[key] = reader.line_num
            rows.append(row)
    return rows


def write_trace_csv(episodes, path: str) -> None:
    """Per-run trace: convergence plus features, transfer counts, and the
    applied action for every (generation, task)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "run"] + TRACE_COLUMNS)
        for run_index, ep in episodes:
            for row in ep.trace.tolist():
                for c in _INT_COLUMNS:
                    row[c] = int(row[c])
                writer.writerow([ep.instance_id, run_index] + row)


def write_attention_csv(attention, path: str) -> None:
    """Long-format export of (G, K, K) masked pre-softmax routing scores."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "target_task", "source_task", "score"])
        for t, scores in enumerate(attention.tolist(), start=1):
            for j, row in enumerate(scores):
                for m, score in enumerate(row):
                    writer.writerow([t, j, m, repr(score)])


def compare_results(rows_a, rows_b, label_a: str, label_b: str) -> str:
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
    tally = {"win": 0, "tie": 0, "loss": 0}
    for inst in instances:
        pa = np.array([by_key_a[k] for k in shared if k[0] == inst])
        pb = np.array([by_key_b[k] for k in shared if k[0] == inst])
        verdict = ("win" if pa.mean() < pb.mean() else
                   "loss" if pa.mean() > pb.mean() else "tie")
        tally[verdict] += 1
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
    lines.append(f"instances: {tally['win']} wins / {tally['tie']} ties / "
                 f"{tally['loss']} losses for {label_a}")
    try:
        stat, p = wilcoxon_signed_rank(all_a, all_b)
        lines.append(f"overall signed-rank: statistic={stat:.1f}, p={p:.4g}")
    except ValueError as err:
        lines.append(f"overall signed-rank: n/a ({err})")
    lines.append(f"overall mean perf: {label_a}={all_a.mean():.4f}, "
                 f"{label_b}={all_b.mean():.4f}")
    return "\n".join(lines) + "\n"
