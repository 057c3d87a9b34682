"""Outside-in instrumentation of emtlab.

Nothing in `src/` is changed.  Every probe replaces a module attribute
with a wrapper and puts the original back afterwards.  emtlab modules
import functions by name (`from .engine import emt_step`), so a wrapper is
installed where the function is looked up at call time, which is not
always where it is defined: `emt_step` is wrapped as `emtlab.harness.emt_step`
and `emtlab.ppo.emt_step`, `self_evolve` as `emtlab.engine.self_evolve`.

Two instruments use this:

* `Probe` is always on.  It times episodes, stamps each `emt_step` call
  with a bare `perf_counter()` (the per-generation intervals), and keeps
  the engine state of each episode for the output checks.
* `Tracer` is on only in traced rounds.  It records one span per call at
  every layer boundary (name, start, end, parent span, episode id), keeps
  them in memory, and counts work (rows, offspring, graph nodes, bytes)
  at the same boundaries.
"""

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from emtlab import benchmarks, engine, harness, ppo
from emtlab.nn import params

LAYERS = ("benchmarks", "engine", "policy", "nn", "ppo", "harness", "stats")
EPISODE_SPANS = ("harness.run_episode", "ppo.run_training_episode")


class Patch:
    """Module-attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclass
class Episode:
    kind: str                      # "eval" or "train"
    start: float
    end: float = 0.0
    stamps: list = field(default_factory=list)   # perf_counter() per emt_step
    state: object = None           # EMTState, for the output checks
    args: tuple = ()
    result: object = None
    error: str = None
    evaluations: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def release(self):
        """Drops the episode's outputs once checked, keeping the counts,
        so memory does not grow with the number of rounds."""
        if self.state is not None:
            self.evaluations = self.state.evaluations
        self.state = self.result = self.args = None

    @property
    def instance_id(self) -> str:
        # run_episode(instance, ...), run_training_episode(store, instance, ...)
        return self.args[0 if self.kind == "eval" else 1].instance_id


class Probe:
    """Always-on, cheap: episode boundaries, step stamps, episode state."""

    def __init__(self):
        self.episodes = []
        self._current = None
        self._patch = Patch()

    def install(self):
        self._patch.wrap(harness, "run_episode", self._episode("eval"))
        self._patch.wrap(ppo, "run_training_episode", self._episode("train"))
        for module in (harness, ppo):
            self._patch.wrap(module, "init_populations", self._init)
            self._patch.wrap(module, "emt_step", self._stamp)

    def uninstall(self):
        self._patch.restore()

    def _episode(self, kind):
        def make(fn):
            def episode(*args, **kwargs):
                ep = Episode(kind, time.perf_counter(), args=args)
                self.episodes.append(ep)
                self._current = ep
                try:
                    ep.result = fn(*args, **kwargs)
                    return ep.result
                except Exception as err:
                    ep.error = repr(err)
                    raise
                finally:
                    ep.end = time.perf_counter()
                    self._current = None
            return episode
        return make

    def _init(self, fn):
        def init_populations(*args, **kwargs):
            state = fn(*args, **kwargs)
            self._current.state = state
            return state
        return init_populations

    def _stamp(self, fn):
        def emt_step(*args, **kwargs):
            self._current.stamps.append(time.perf_counter())
            return fn(*args, **kwargs)
        return emt_step


# --- counters: (args, kwargs, result) -> {count name: amount} -------------

def _rows(args, kwargs, result):
    return {"rows": np.shape(args[1])[0]}


def _self_offspring(args, kwargs, result):
    return {"offspring": len(args[2])}


def _transfer_offspring(args, kwargs, result):
    return {"offspring": len(result[1])}


def _select_before(args, kwargs):
    pop, offspring, offspring_fitness, transfer_mask = args
    return {"offspring": len(offspring_fitness),
            "accepted": int(np.count_nonzero(offspring_fitness <= pop.fitness)),
            "transfers": int(np.count_nonzero(transfer_mask))}


def _select_after(args, kwargs, result):
    return {"transfer_survivors": int(result)}


def _graph_nodes(args, kwargs):
    seen = set()
    todo = [args[0]]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.parents)
    return {"nodes": len(seen)}


def _aborted(args, kwargs, result):
    return {"aborted": int(bool(result["aborted"]))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _basic_name(args, kwargs):
    return "benchmarks." + args[0].key


# (module, attribute, span name or name function, count before, count after)
HOOKS = [
    (benchmarks, "evaluate_basic_batch", _basic_name, None, _rows),
    (benchmarks, "generate_awcci", "benchmarks.generate", None, None),
    (benchmarks, "sample_instances", "benchmarks.generate", None, None),
    (benchmarks, "save_instances", "benchmarks.dataset.save", None, _file_bytes),
    (benchmarks, "load_instances", "benchmarks.dataset.load", None, None),
    (engine, "evaluate_subtask_batch", "benchmarks.eval", None, _rows),
    (engine, "self_evolve", "engine.self_evolve", None, _self_offspring),
    (engine, "transfer_evolve", "engine.transfer_evolve", None, _transfer_offspring),
    (engine, "greedy_select", "engine.greedy_select", _select_before, _select_after),
    (engine, "compute_reward", "engine.compute_reward", None, None),
    (harness, "init_populations", "engine.init_populations", None, None),
    (harness, "extract_state", "engine.extract_state", None, None),
    (harness, "emt_step", "engine.emt_step", None, None),
    (harness, "trace_rows", "engine.trace_rows", None, None),
    (harness, "act_with_context", "policy.act", None, None),
    (harness, "wilcoxon_signed_rank", "stats.wilcoxon", None, None),
    (harness, "run_episode", "harness.run_episode", None, None),
    (harness, "evaluate", "harness.evaluate", None, None),
    (harness, "write_results_csv", "harness.write_results_csv", None, None),
    (harness, "read_results_csv", "harness.read_results_csv", None, None),
    (harness, "write_trace_csv", "harness.write_trace_csv", None, _file_bytes),
    (harness, "compare_results", "harness.compare_results", None, None),
    (ppo, "init_populations", "engine.init_populations", None, None),
    (ppo, "extract_state", "engine.extract_state", None, None),
    (ppo, "emt_step", "engine.emt_step", None, None),
    (ppo, "act", "policy.act", None, None),
    (ppo, "critic_value", "policy.critic_value", None, None),
    (ppo, "evaluate_actions", "policy.evaluate_actions", None, None),
    (ppo, "init_policy", "policy.init_policy", None, None),
    (ppo, "backward", "nn.backward", _graph_nodes, None),
    (ppo, "adam_step", "nn.adam_step", None, None),
    (ppo, "save_checkpoint", "nn.checkpoint.save", None, _file_bytes),
    (params, "save_checkpoint", "nn.checkpoint.save", None, _file_bytes),
    (params, "load_checkpoint", "nn.checkpoint.load", None, None),
    (ppo, "compute_advantages", "ppo.compute_advantages", None, None),
    (ppo, "ppo_update", "ppo.ppo_update", None, _aborted),
    (ppo, "run_training_episode", "ppo.run_training_episode", None, None),
    (ppo, "train", "ppo.train", None, None),
    (ppo, "write_training_log", "ppo.write_training_log", None, None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                    # index into Tracer.spans, -1 for none
    episode: int                   # episode id, -1 outside episodes
    counts: dict
    hook_s: float                  # counting before the call, in the parent

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; install() turns it on, uninstall() off."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._episode = -1
        self._episodes = 0
        self._patch = Patch()

    def install(self):
        for module, attr, name, before, after in HOOKS:
            self._patch.wrap(module, attr,
                             lambda fn, n=name, b=before, a=after:
                             self._wrapper(fn, n, b, a))

    def uninstall(self):
        self._patch.restore()

    def _wrapper(self, fn, name, before, after):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            hook_start = time.perf_counter()
            counts = before(args, kwargs) if before else {}
            if span_name in EPISODE_SPANS:
                self._episodes += 1
                self._episode = self._episodes
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(span_name, start, end, parent,
                                         self._episode, counts,
                                         start - hook_start)
                if span_name in EPISODE_SPANS:
                    self._episode = -1
            if after:
                counts.update(after(args, kwargs, result))
            return result
        return traced

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,episode\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},"
                         f"{s.episode}\n")


def self_times(spans):
    """Each span's duration minus the part its direct children cover,
    and minus the time the tracer spent counting before those children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds + s.hook_s
    return own


def layer_metrics(tracer, traced_rounds, untraced_rounds):
    """Per-layer metrics from the spans of the traced rounds.

    Times and counts inside the timed loop are per round.  Set-up costs
    (dataset and checkpoint I/O, instance generation) are the median over
    calls, wherever the call happened.  traced_rounds/untraced_rounds are
    lists of (start, end) perf_counter pairs.
    """
    spans = tracer.spans
    own = self_times(spans)
    rounds = len(traced_rounds)

    def in_loop(s):
        return any(a <= s.start < b for a, b in traced_rounds)

    total = {}
    self_total = {}
    calls = {}
    counts = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    episode_s = episode_self = 0.0
    n_loop = 0
    for s, own_s in zip(spans, own):
        if not in_loop(s):
            continue
        n_loop += 1
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        self_total[s.name] = self_total.get(s.name, 0.0) + own_s
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, amount in s.counts.items():
            counts[(s.name, key)] = counts.get((s.name, key), 0) + amount
        layer_self[s.name.split(".", 1)[0]] += own_s
        if s.name in EPISODE_SPANS:
            episode_s += s.seconds
            episode_self += own_s

    def per_round(table, name):
        return table.get(name, 0) / rounds

    def count(name, key):
        return counts.get((name, key), 0) / rounds

    def median_call(name, key=None):
        values = [s.counts.get(key, 0) if key else s.seconds
                  for s in spans if s.name == name]
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for fid in benchmarks.BasicFunction:
        name = "benchmarks." + fid.key
        m[name + ".s"] = per_round(total, name)
        m[name + ".rows"] = count(name, "rows")
    m["benchmarks.eval.self_s"] = per_round(self_total, "benchmarks.eval")
    m["benchmarks.eval.rows"] = count("benchmarks.eval", "rows")
    m["benchmarks.dataset.load_s"] = median_call("benchmarks.dataset.load")
    m["benchmarks.dataset.save_s"] = median_call("benchmarks.dataset.save")
    m["benchmarks.dataset.bytes"] = median_call("benchmarks.dataset.save", "bytes")
    m["benchmarks.generate_s"] = median_call("benchmarks.generate")

    for fn in ("self_evolve", "transfer_evolve"):
        m[f"engine.{fn}.s"] = per_round(total, "engine." + fn)
        m[f"engine.{fn}.offspring"] = count("engine." + fn, "offspring")
    for fn in ("greedy_select", "extract_state", "init_populations"):
        m[f"engine.{fn}.s"] = per_round(total, "engine." + fn)
    m["engine.emt_step.self_s"] = per_round(self_total, "engine.emt_step")
    m["engine.transfer.survival_ratio"] = ratio(
        counts.get(("engine.greedy_select", "transfer_survivors"), 0),
        counts.get(("engine.greedy_select", "transfers"), 0))
    m["engine.select.accept_ratio"] = ratio(
        counts.get(("engine.greedy_select", "accepted"), 0),
        counts.get(("engine.greedy_select", "offspring"), 0))

    for fn in ("act", "critic_value", "evaluate_actions"):
        m[f"policy.{fn}.s"] = per_round(total, "policy." + fn)
        m[f"policy.{fn}.calls"] = per_round(calls, "policy." + fn)

    m["nn.backward.s"] = per_round(total, "nn.backward")
    m["nn.backward.calls"] = per_round(calls, "nn.backward")
    m["nn.backward.nodes"] = count("nn.backward", "nodes")
    m["nn.adam_step.s"] = per_round(total, "nn.adam_step")
    m["nn.checkpoint.save_s"] = median_call("nn.checkpoint.save")
    m["nn.checkpoint.load_s"] = median_call("nn.checkpoint.load")
    m["nn.checkpoint.bytes"] = median_call("nn.checkpoint.save", "bytes")

    m["ppo.ppo_update.s"] = per_round(total, "ppo.ppo_update")
    m["ppo.ppo_update.calls"] = per_round(calls, "ppo.ppo_update")
    m["ppo.ppo_update.self_s"] = per_round(self_total, "ppo.ppo_update")
    m["ppo.ppo_update.aborted"] = count("ppo.ppo_update", "aborted")
    m["ppo.compute_advantages.s"] = per_round(total, "ppo.compute_advantages")

    m["harness.run_episode.self_s"] = per_round(self_total, "harness.run_episode")
    m["harness.write_results_csv.s"] = per_round(total, "harness.write_results_csv")
    m["harness.write_trace_csv.s"] = per_round(total, "harness.write_trace_csv")
    m["harness.trace.bytes"] = count("harness.write_trace_csv", "bytes")
    m["stats.wilcoxon.s"] = per_round(total, "stats.wilcoxon")
    m["stats.wilcoxon.calls"] = per_round(calls, "stats.wilcoxon")

    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer] / rounds
    traced = statistics.median(b - a for a, b in traced_rounds)
    untraced = statistics.median(b - a for a, b in untraced_rounds)
    m["trace.round_s"] = traced
    m["trace.untraced_round_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_frac"] = (traced - untraced) / untraced
    m["trace.coverage"] = ratio(episode_s - episode_self, episode_s)
    m["trace.spans"] = n_loop / rounds
    return m
