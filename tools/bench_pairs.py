"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_train_round.json \
        train-desk=10 eval-paper=5 ablate-desk=5

Run from the root of a source checkout.  The parent's committed files are
exported with `git archive` into a fresh directory, so the parent side
runs exactly what is committed and the repository's own state is not
touched.  For every `workload=pairs` argument, each pair runs
`perfbench/run.py --trace 0` once on the parent and once on the working
tree, alternating which side goes first, at perfbench's own run length.
Before each pair, its first side runs once more and that run is
discarded, so that neither side pays alone for a cold start; per workload
and per order, `order_bias` keeps the median ratio of the first run's
`cpu_s` to the second's, which reads 1 when the order does not matter.
The JSON file written to --out holds each run's end-to-end metrics, whether
the two runs of a pair wrote the same output digests, each side's share of
failed episodes, and per metric the median and quartiles of each side and
the share of pairs the working tree won (ties count for neither).  The
working tree is identified by the git tree hashes of all its files and of
`src` alone (untracked files included, ignored ones not), which equal
`git rev-parse COMMIT^{tree}` and `COMMIT:src` of a commit of the same
files.  The claim rule of the benchmark is evaluated per metric: every pair
wrote the same digests, the working tree failed no larger share of
episodes and no more runs than the parent, it won at least nine tenths of
the pairs, and its median is better than the parent's by more than the
parent's inter-quartile range.  Each metric also gets a regression verdict
from its `bound` in BENCHMARK.json.  `pairs_past_bound` counts the pairs
in which the working tree's run is worse than its paired parent run by
more than bound x that run.  The verdict is `worse` when the working
tree's median is worse than the parent's by more than bound x the
parent's median and more than half of the pairs are past the bound too;
`unresolved` when the median is past the bound but the pairs are not, or
when the parent's inter-quartile range exceeds bound x its median and not
every working-tree run beats every parent run; and `none` otherwise.  A
workload has `no_regression` when every metric reads `none`, so an
`unresolved` verdict fails it just as `worse` does.
After its pairs, each workload runs three more times per side with
`--trace 1` for one traced round each, alternating which side goes first;
the JSON keeps each side's per-layer metrics per run and their per-metric
medians, `counts_equal`, and `counts_differ`, the names of the
`count/round` metrics of BENCHMARK.json whose values differ between any
two traced runs, of either side.
`src_lines` holds each side's line count of `src/**/*.py`, as `wc -l`
counts them.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
SIDES = ("parent", "change")
# perfbench runs at least one untraced and one traced round; a short run
# length stops it there
TRACE_SECONDS = 1
# one traced round per side cannot tell a per-layer change from the
# round-to-round spread; three give a median
TRACE_RUNS = 3


def export_commit(ref, dest):
    """Writes the committed files of `ref` into `dest`; returns its hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return commit


def working_tree():
    """Git tree hashes of the working tree and of its `src`, built in a
    throwaway index so the repository's own index is not touched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        tree = subprocess.run(["git", "write-tree"], cwd=ROOT, env=env,
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    src = subprocess.run(["git", "rev-parse", tree + ":src"], cwd=ROOT,
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    return {"tree": tree, "src_tree": src}


def src_lines(checkout):
    """Newlines in the checkout's src/**/*.py files, the total `wc -l`
    prints for them."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"),
                          recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(checkout, workload, seed, trace=False):
    """One benchmark run, untraced at perfbench's own run length or traced
    for one round; returns its result line and run record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        cmd += ["--seconds", str(TRACE_SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    except (ValueError, IndexError):
        raise SystemExit(f"{' '.join(cmd)} in {checkout} printed no result "
                         f"line (exit {proc.returncode}):\n{proc.stderr}")
    with open(os.path.join(checkout, ".perfbench_out", workload,
                           "result.json")) as fh:
        record = json.load(fh)
    return result, record


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def outputs(pairs):
    """Whether the working tree kept the parent's outputs and failed no
    more often; a gain does not count otherwise."""
    failed_share = {side: sum(p[side]["failed"] for p in pairs)
                    / sum(p[side]["attempted"] for p in pairs)
                    for side in SIDES}
    incorrect = {side: sum(not p[side]["correct"] for p in pairs)
                 for side in SIDES}
    digests_equal = all(p["digests_equal"] for p in pairs)
    return {
        "digests_equal": digests_equal,
        "failed_share": failed_share,
        "incorrect_runs": incorrect,
        "kept": (digests_equal
                 and failed_share["change"] <= failed_share["parent"]
                 and incorrect["change"] <= incorrect["parent"]),
    }


def regression(parent, change, direction, bound, past):
    """`worse`, `unresolved` or `none`: whether the change's runs show a
    regression beyond `bound`, a share of the parent's median; `past` is
    the number of pairs past the bound, and a median past it reads `worse`
    only when more than half of the pairs are."""
    sign = 1.0 if direction == "lower" else -1.0
    before = quartiles(parent)
    allowed = bound * abs(before["median"])
    if sign * (float(np.median(change)) - before["median"]) > allowed:
        return "worse" if past > len(parent) / 2 else "unresolved"
    beats_all = (max(change) < min(parent) if direction == "lower"
                 else min(change) > max(parent))
    if before["q3"] - before["q1"] > allowed and not beats_all:
        return "unresolved"
    return "none"


def summarize(pairs, spec):
    """Per metric of `spec` ({name: {"better", "bound"}}): each side's
    quartiles, the pair wins, the claim rule and the regression verdict;
    also the outputs check the claim rule rests on and whether the
    workload shows no regression."""
    kept = outputs(pairs)
    summary = {}
    for name, metric in spec.items():
        direction = metric["better"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(parent, change))
        losses = sum(sign * (c - b) > 0 for b, c in zip(parent, change))
        past = sum(sign * (c - b) > metric["bound"] * abs(b)
                   for b, c in zip(parent, change))
        before, after = quartiles(parent), quartiles(change)
        gain = sign * (before["median"] - after["median"])
        summary[name] = {
            "better": direction,
            "bound": metric["bound"],
            "parent": before,
            "change": after,
            "relative_change": after["median"] / before["median"] - 1.0,
            "change_wins": wins,
            "parent_wins": losses,
            "win_fraction": wins / len(pairs),
            "claim_rule_met": (kept["kept"]
                               and wins >= WIN_SHARE * len(pairs)
                               and gain > before["q3"] - before["q1"]),
            "regression": regression(parent, change, direction,
                                     metric["bound"], past),
            "pairs_past_bound": past,
        }
    return {"outputs": kept, "metrics": summary,
            "no_regression": all(s["regression"] == "none"
                                 for s in summary.values())}


def order_bias(pairs):
    """Per order, the median over its pairs of the first run's `cpu_s`
    over the second run's; None for an order that no pair ran."""
    ratios = {side: [] for side in SIDES}
    for p in pairs:
        first, second = p["order"]
        ratios[first].append(p[first]["metrics"]["cpu_s"]
                             / p[second]["metrics"]["cpu_s"])
    return {f"{side}_first": float(np.median(r)) if r else None
            for side, r in ratios.items()}


def counts_differ(parent, change, names):
    """The count metrics in `names` whose values differ between the two
    sides' metric dicts; a metric missing on one side differs."""
    return [name for name in names if parent.get(name) != change.get(name)]


def trace_workload(workload, parent_dir, seed, count_names):
    """TRACE_RUNS traced rounds per side, alternating which side goes
    first as the pairs do: each side's per-layer metrics per run and their
    per-metric medians, and the work counts that differ between any two
    runs, of either side."""
    checkouts = {"parent": parent_dir, "change": ROOT}
    runs = {side: [] for side in SIDES}
    for i in range(TRACE_RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result, _ = run_once(checkouts[side], workload, seed, trace=True)
            runs[side].append({name: m["value"]
                               for name, m in result["metrics"].items()})
    metrics = {side: {name: float(np.median([run[name] for run in side_runs]))
                      for name in side_runs[0]}
               for side, side_runs in runs.items()}
    first, *rest = runs["parent"] + runs["change"]
    differ = [name for name in count_names
              if any(counts_differ(first, run, [name]) for run in rest)]
    return {"metrics": metrics, "runs": runs, "counts_equal": not differ,
            "counts_differ": differ}


def bench_workload(workload, n_pairs, parent_dir, seed, spec, environment):
    """Runs the pairs of one workload; fills `environment` from the first
    run record."""
    checkouts = {"parent": parent_dir, "change": ROOT}
    pairs = []
    for i in range(n_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"order": list(order)}
        digests = {}
        run_once(checkouts[order[0]], workload, seed)       # discarded
        for side in order:
            result, record = run_once(checkouts[side], workload, seed)
            pair[side] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: m["value"]
                            for name, m in result["metrics"].items()},
                "loadavg_at_start": record["environment"]["loadavg_at_start"],
            }
            digests[side] = record["digests"]
            environment.update((key, value) for key, value
                               in record["environment"].items()
                               if key != "loadavg_at_start")
            print(f"{workload} pair {i + 1}/{n_pairs} {side}: cpu_s "
                  f"{pair[side]['metrics']['cpu_s']:.3f}, failed "
                  f"{result['failed']}/{result['attempted']}", flush=True)
        pair["digests_equal"] = digests["parent"] == digests["change"]
        pairs.append(pair)
    return {"pairs": pairs, **summarize(pairs, spec),
            "order_bias": order_bias(pairs)}


def parse_pairs(text):
    workload, _, count = text.partition("=")
    if not workload or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected workload=pairs, got {text!r}")
    return workload, int(count)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", type=parse_pairs,
                        metavar="workload=pairs")
    parser.add_argument("--parent", default="HEAD",
                        help="git ref of the parent side (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    count_names = [m["name"] for m in spec["per_layer"]
                   if m["unit"] == "count/round"]
    with tempfile.TemporaryDirectory() as parent_dir:
        return run_pairs(args, metrics, count_names, parent_dir)


def run_pairs(args, spec, count_names, parent_dir):
    parent = export_commit(args.parent, parent_dir)
    environment = {}
    doc = {
        "command": f"perfbench/run.py --seed {args.seed} --trace 0",
        "trace_command": (f"perfbench/run.py --seed {args.seed} --trace 1 "
                          f"--seconds {TRACE_SECONDS}"),
        "trace_runs_per_side": TRACE_RUNS,
        "parent": {"ref": args.parent, "commit": parent},
        "change": working_tree(),
        "src_lines": {"parent": src_lines(parent_dir), "change": src_lines(ROOT)},
        "seed": args.seed,
        "claim_rule": ("every pair wrote the same digests, the change failed "
                       "no larger share of episodes and no more runs, it "
                       f"won >= {WIN_SHARE} of pairs, and its median beats "
                       "the parent's by more than the parent's "
                       "inter-quartile range"),
        "regression_rule": ("worse: the change's median is worse than the "
                            "parent's by more than bound x the parent's "
                            "median and more than half of the pairs are past "
                            "the bound; unresolved: the median is past the "
                            "bound but at most half of the pairs are, or the "
                            "parent's inter-quartile range exceeds bound x "
                            "its median and not every change run beats every "
                            "parent run; pairs_past_bound: the pairs whose "
                            "change run is worse than their parent run by "
                            "more than bound x that run"),
        "order_rule": ("before each pair its first side runs once more, "
                       "discarded; order_bias: per order, the median ratio "
                       "of the first run's cpu_s to the second's"),
        "environment": environment,
        "workloads": {},
    }
    for workload, n_pairs in args.runs:
        doc["workloads"][workload] = bench_workload(
            workload, n_pairs, parent_dir, args.seed, spec, environment)
        doc["workloads"][workload]["trace"] = trace_workload(
            workload, parent_dir, args.seed, count_names)
        # rewrite after every workload, so an interrupted run keeps
        # what it measured
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(f"src_lines parent {doc['src_lines']['parent']} change "
          f"{doc['src_lines']['change']}")
    for workload, result in doc["workloads"].items():
        if not result["outputs"]["kept"]:
            print(f"{workload}: outputs changed or more failures: "
                  f"{result['outputs']}")
        for name, s in result["metrics"].items():
            print(f"{workload:12s} {name:14s} parent "
                  f"{s['parent']['median']:.6g} change "
                  f"{s['change']['median']:.6g} wins "
                  f"{s['change_wins']}/{len(result['pairs'])} "
                  f"claim {s['claim_rule_met']} "
                  f"regression {s['regression']} past bound "
                  f"{s['pairs_past_bound']}/{len(result['pairs'])}")
        print(f"{workload:12s} no_regression {result['no_regression']} "
              f"order_bias {result['order_bias']}")
        trace = result["trace"]
        print(f"{workload:12s} counts_equal {trace['counts_equal']} "
              + " ".join(trace["counts_differ"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
