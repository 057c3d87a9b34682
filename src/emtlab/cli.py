"""Command-line entry points.

    emtlab generate          build a problem-set file for one shift level
    emtlab train             train the controller from a JSON config
    emtlab evaluate          run a checkpoint or a --variant (alias: ablate)
    emtlab export-attention  dump per-generation routing score matrices
    emtlab compare           paired comparison of two results files
"""

import argparse
import json
import os

from . import benchmarks, harness, ppo
from .nn.params import load_checkpoint


def _cmd_generate(args):
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    level = benchmarks.SHIFT_LEVELS[args.level]
    instances = benchmarks.generate_awcci(level, args.seed, args.tasks, args.dim)
    if args.limit is not None:
        instances = instances[:args.limit]
    benchmarks.save_instances(instances, args.out)
    print(f"wrote {len(instances)} instances to {args.out}")


def load_train_config(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"train config {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"train config {path} must be a JSON object, "
                         f"got {type(doc).__name__}")
    for key in ("dataset", "seed"):
        if key not in doc:
            raise ValueError(f"train config {path} missing required key: {key}")
    ppo_keys = set(ppo.PPOConfig.__dataclass_fields__)
    unknown = sorted(set(doc) - ppo_keys
                     - {"dataset", "seed", "pop_size", "n_tasks", "dim"})
    if unknown:
        raise ValueError(f"train config {path} has unknown keys: {', '.join(unknown)}")
    doc.setdefault("pop_size", 50)   # its range is ppo.train's check_pop_size
    for key, kind, noun in (("dataset", str, "a string"), ("seed", int, "an integer"),
                            ("pop_size", int, "an integer"),
                            ("n_tasks", int, "an integer"), ("dim", int, "an integer")):
        if key in doc and type(doc[key]) is not kind:
            raise ValueError(f"train config {path}: {key} must be {noun}, "
                             f"got {doc[key]!r}")
    return doc, ppo.PPOConfig(**{k: v for k, v in doc.items() if k in ppo_keys})


def _cmd_train(args):
    doc, config = load_train_config(args.config)
    instances = benchmarks.load_instances(doc["dataset"])
    for inst in instances:
        for key, found in (("n_tasks", inst.n_tasks), ("dim", inst.sub_tasks[0].dim)):
            if key in doc and doc[key] != found:
                raise ValueError(f"config {key}={doc[key]} but {doc['dataset']} "
                                 f"instance {inst.instance_id} has {found}")
    result = ppo.train(instances, config, doc["seed"], doc["pop_size"], args.out)
    ppo.write_training_log(result.log, os.path.join(args.out, "training_log.csv"))
    total = config.epochs * len(instances)
    skipped = total - len(result.log)
    if skipped:
        raise SystemExit(f"training failed: {skipped} of {total} episodes were "
                         f"skipped (the log names each); outputs in {args.out}")
    print(f"trained {config.epochs} epochs over {len(instances)} instances; "
          f"outputs in {args.out}")


def _load_run(args):
    """The dataset's instances and the checkpoint's args.variant controller."""
    store = load_checkpoint(args.checkpoint)
    instances = benchmarks.load_instances(args.dataset)
    return instances, harness.Controller(store, args.variant)


def _make_out_dir(path, runs, budget, pop_size):
    """Checks the counts, so a bad one leaves no directory, then creates
    path, so a bad path fails before the first episode."""
    harness.check_evaluation(runs, budget, pop_size)
    os.makedirs(path, exist_ok=True)


def _run_evaluation(args):
    instances, controller = _load_run(args)
    for inst in instances:   # results.csv has one perf_task column per task
        if inst.n_tasks != instances[0].n_tasks:
            raise ValueError(f"{args.dataset}: instance {inst.instance_id} has "
                             f"{inst.n_tasks} tasks, {instances[0].instance_id} "
                             f"has {instances[0].n_tasks}")
    _make_out_dir(args.out, args.runs, args.budget, args.pop_size)
    rows, episodes = harness.evaluate(controller, instances, args.runs,
                                      args.seed, args.pop_size, args.budget,
                                      collect_trace=True)
    harness.write_results_csv(rows, os.path.join(args.out, "results.csv"))
    paired = [(row.run_index, ep) for row, ep in zip(rows, episodes)]
    harness.write_trace_csv(paired, os.path.join(args.out, "trace.csv"))
    print(f"{args.variant}: mean perf {harness.mean_perf(rows):.4f} over "
          f"{len(rows)} runs; results in {args.out}")


def _cmd_export_attention(args):
    instances, controller = _load_run(args)
    if not 0 <= args.index < len(instances):
        raise ValueError(f"--index {args.index} is out of range: {args.dataset} "
                         f"holds {len(instances)} instances")
    inst = instances[args.index]
    _make_out_dir(os.path.dirname(os.path.abspath(args.out)), 1, args.budget,
                  args.pop_size)
    if os.path.isdir(args.out):   # else writing the scores fails after the episode
        raise IsADirectoryError(f"--out {args.out} is a directory, expected a file")
    _, (ep,) = harness.evaluate(controller, [inst], 1, args.seed, args.pop_size,
                                args.budget, collect_trace=True)
    harness.write_attention_csv(ep.attention, args.out)
    print(f"wrote {len(ep.attention)} generations of routing scores "
          f"for {inst.instance_id} to {args.out}")


def _cmd_compare(args):
    rows_a = harness.read_results_csv(args.a)
    rows_b = harness.read_results_csv(args.b)
    text = harness.compare_results(rows_a, rows_b, args.a, args.b)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")


def _add_run_flags(p):
    """Flags shared by the commands that run a checkpoint on a dataset file."""
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--pop-size", type=int, default=50, dest="pop_size")
    p.add_argument("--budget", type=int, default=250)


def build_parser():
    parser = argparse.ArgumentParser(prog="emtlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a problem-set file")
    p.add_argument("--level", choices=sorted(benchmarks.SHIFT_LEVELS),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tasks", type=int, default=10)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int, default=None,
                   help="keep only the first N instances")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train the controller")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", aliases=["ablate"], help="evaluate a checkpoint")
    _add_run_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--variant", choices=harness.ABLATION_VARIANTS, default="full")
    p.set_defaults(func=_run_evaluation)

    p = sub.add_parser("export-attention", help="dump routing score matrices")
    _add_run_flags(p)
    p.add_argument("--instance", required=True, dest="dataset",
                   help="dataset file; --index picks the instance")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=_cmd_export_attention, variant="full")

    p = sub.add_parser("compare", help="paired comparison of two results files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
