"""End-to-end command-line workflows on tiny configurations."""

import json
import re

import numpy as np
import pytest

from emtlab import benchmarks as B
from emtlab import cli, ppo
from emtlab import harness as H
from emtlab.nn.params import CheckpointError, save_checkpoint
from emtlab.policy import init_policy


def run(argv):
    cli.main(argv)


@pytest.fixture()
def tiny_dataset(tmp_path):
    path = tmp_path / "train.jsonl"
    B.save_instances(B.sample_instances(0.2, seed=2, n_tasks=2, dim=2, count=2),
                     str(path))
    return path


@pytest.fixture()
def mixed_dataset(tmp_path):
    """A K=2 file joined with a K=3 file: the first instance has 2 tasks."""
    path = tmp_path / "mixed.jsonl"
    for seed, n_tasks in ((2, 2), (5, 3)):
        part = tmp_path / f"k{n_tasks}.jsonl"
        B.save_instances(B.sample_instances(0.2, seed=seed, n_tasks=n_tasks,
                                            dim=2, count=1), str(part))
        with open(path, "a") as fh:
            fh.write(part.read_text())
    first, second = B.load_instances(str(path))
    assert first.instance_id != second.instance_id
    return path, first, second


class TestGenerate:
    def test_full_level(self, tmp_path):
        out = tmp_path / "set.jsonl"
        run(["generate", "--level", "vs", "--seed", "4", "--tasks", "2",
             "--dim", "2", "--out", str(out)])
        assert len(B.load_instances(str(out))) == 127

    def test_limit(self, tmp_path):
        out = tmp_path / "set.jsonl"
        run(["generate", "--level", "m", "--seed", "4", "--tasks", "3",
             "--dim", "2", "--out", str(out), "--limit", "5"])
        instances = B.load_instances(str(out))
        assert len(instances) == 5
        assert instances[0].n_tasks == 3


class TestTrainEvaluatePipeline:
    def test_full_pipeline(self, tmp_path, tiny_dataset):
        config = {
            "dataset": str(tiny_dataset), "seed": 3, "pop_size": 6,
            "n_tasks": 2, "dim": 2, "epochs": 1, "budget": 6, "t_ppo": 3,
            "k_ppo": 1,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        train_dir = tmp_path / "run"
        run(["train", "--config", str(config_path), "--out", str(train_dir)])
        checkpoint = train_dir / "checkpoint.json"
        assert checkpoint.exists()
        assert (train_dir / "training_log.csv").exists()

        eval_dir = tmp_path / "eval"
        run(["evaluate", "--checkpoint", str(checkpoint), "--dataset",
             str(tiny_dataset), "--runs", "2", "--seed", "1", "--out",
             str(eval_dir), "--pop-size", "6", "--budget", "5"])
        assert (eval_dir / "results.csv").exists()
        assert (eval_dir / "trace.csv").exists()
        trace_header = (eval_dir / "trace.csv").read_text().splitlines()[0]
        assert trace_header.startswith("instance_id,run,generation,task,best_so_far")

        ablate_dir = tmp_path / "ablate"
        run(["ablate", "--variant", "no_f", "--checkpoint", str(checkpoint),
             "--dataset", str(tiny_dataset), "--runs", "2", "--seed", "1",
             "--out", str(ablate_dir), "--pop-size", "6", "--budget", "5"])
        assert (ablate_dir / "results.csv").exists()

        att_path = tmp_path / "attention.csv"
        run(["export-attention", "--checkpoint", str(checkpoint),
             "--instance", str(tiny_dataset), "--out", str(att_path),
             "--pop-size", "6", "--budget", "4"])
        lines = att_path.read_text().splitlines()
        assert lines[0] == "generation,target_task,source_task,score"
        assert len(lines) == 1 + 4 * 2 * 2  # budget * K * K
        # masked self scores export as -inf
        self_rows = [l for l in lines[1:]
                     if l.split(",")[1] == l.split(",")[2]]
        assert all(l.endswith("-inf") for l in self_rows)

        summary = tmp_path / "cmp.txt"
        run(["compare", "--a", str(eval_dir / "results.csv"), "--b",
             str(ablate_dir / "results.csv"), "--out", str(summary)])
        assert "overall mean perf" in summary.read_text()

    def test_config_dimension_mismatch(self, tmp_path, tiny_dataset):
        config = {"dataset": str(tiny_dataset), "seed": 3, "dim": 50,
                  "epochs": 1, "budget": 4}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        with pytest.raises(ValueError, match="dim"):
            run(["train", "--config", str(config_path), "--out",
                 str(tmp_path / "x")])

    @pytest.mark.parametrize("doc", [5, "dataset seed", ["dataset", "seed"]],
                             ids=["number", "string", "list"])
    def test_config_not_an_object(self, tmp_path, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=r"config\.json must be a JSON "
                                             r"object, got (int|str|list)$"):
            run(["train", "--config", str(config_path), "--out", str(out)])
        assert not out.exists()

    def test_config_malformed_json(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"dataset": "d.jsonl", "seed": 3,}')
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=r"config\.json is not valid JSON: "
                                             r"Expecting property name .* column 34"):
            run(["train", "--config", str(config_path), "--out", str(out)])
        assert not out.exists()

    def test_config_task_count_checked_on_every_instance(self, tmp_path,
                                                         mixed_dataset):
        dataset, _, second = mixed_dataset
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"dataset": str(dataset), "seed": 3,
                                           "n_tasks": 2, "epochs": 1,
                                           "budget": 4}))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=rf"^config n_tasks=2 but .*mixed\.jsonl "
                                             rf"instance {second.instance_id} has 3$"):
            run(["train", "--config", str(config_path), "--out", str(out)])
        assert not out.exists()

    def test_config_missing_key(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ValueError, match="dataset"):
            run(["train", "--config", str(config_path), "--out",
                 str(tmp_path / "x")])

    @pytest.mark.parametrize("extra, error", [
        ({"learning_rte": 0.1}, "config.json has unknown keys: learning_rte$"),
        ({"Epochs": 2, "t_pp0": 3}, "config.json has unknown keys: Epochs, t_pp0$"),
        ({"k_ppo": 0}, "^k_ppo must be an integer >= 1, got 0$"),
        ({"budget": 0}, "^budget must be an integer >= 1, got 0$"),
        ({"learning_rate": -1}, "^learning_rate must be a finite number > 0, "
                                "got -1$"),
        ({"pop_size": 2}, "^population size must be >= 4 for DE/rand/1, got 2$"),
        ({"pop_size": 30.0}, "config.json: pop_size must be an integer, got 30.0$"),
        ({"seed": True}, "config.json: seed must be an integer, got True$"),
        ({"seed": "3"}, "config.json: seed must be an integer, got '3'$"),
        # 0 and 1 would open stdin and stdout as the dataset file
        ({"dataset": 0}, "config.json: dataset must be a string, got 0$"),
        ({"dataset": 1}, "config.json: dataset must be a string, got 1$"),
        ({"n_tasks": "2"}, "config.json: n_tasks must be an integer, got '2'$"),
        ({"dim": True}, "config.json: dim must be an integer, got True$"),
    ], ids=["typo", "two-unknown", "k_ppo", "budget", "learning_rate",
            "pop_size", "pop_size-float", "seed-bool", "seed-str",
            "dataset-fd0", "dataset-fd1", "n_tasks-str", "dim-bool"])
    def test_bad_config_exits_before_writing(self, tmp_path, tiny_dataset,
                                             extra, error):
        config = dict({"dataset": str(tiny_dataset), "seed": 3, "epochs": 1,
                       "budget": 4}, **extra)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=error):
            run(["train", "--config", str(config_path), "--out", str(out)])
        assert not out.exists()

    def test_epoch_without_episode_exits_nonzero(self, tmp_path, tiny_dataset,
                                                  monkeypatch):
        # two instances, two epochs: both episodes of epoch 2 fail
        original = ppo.run_training_episode
        calls = []

        def failing_late(*args, **kwargs):
            calls.append(1)
            if len(calls) > 2:
                raise FloatingPointError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(ppo, "run_training_episode", failing_late)
        config = {"dataset": str(tiny_dataset), "seed": 3, "pop_size": 6,
                  "epochs": 2, "budget": 4, "t_ppo": 4, "k_ppo": 1}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        train_dir = tmp_path / "run"
        with pytest.raises(SystemExit, match=r"2 of 4 episodes were skipped"):
            run(["train", "--config", str(config_path), "--out",
                 str(train_dir)])
        lines = (train_dir / "training_log.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 and all(l.startswith("1,") for l in lines[1:])

    def test_one_skipped_episode_exits_nonzero(self, tmp_path, tiny_dataset,
                                               monkeypatch):
        # two instances, one epoch: the second episode fails, the first
        # completes, so the epoch is not empty
        original = ppo.run_training_episode
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(ppo, "run_training_episode", failing_second)
        config = {"dataset": str(tiny_dataset), "seed": 3, "pop_size": 6,
                  "epochs": 1, "budget": 4, "t_ppo": 4, "k_ppo": 1}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        train_dir = tmp_path / "run"
        with pytest.raises(SystemExit, match=r"1 of 2 episodes were skipped"):
            run(["train", "--config", str(config_path), "--out",
                 str(train_dir)])
        lines = (train_dir / "training_log.csv").read_text().splitlines()
        assert len(lines) == 1 + 1


class TestBadDatasetInputs:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = tmp_path / "policy.json"
        save_checkpoint(init_policy(0), str(path))
        return path

    @pytest.fixture()
    def one_instance(self, tmp_path):
        path = tmp_path / "one.jsonl"
        B.save_instances(B.sample_instances(0.2, seed=2, n_tasks=2, dim=2,
                                            count=1), str(path))
        return path

    @pytest.fixture()
    def empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        return path

    def test_train_on_empty_dataset(self, tmp_path, empty_dataset):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"dataset": str(empty_dataset),
                                           "seed": 3, "epochs": 1, "budget": 4}))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="empty.jsonl holds no instances$"):
            run(["train", "--config", str(config_path), "--out", str(out)])
        assert not out.exists()

    def test_evaluate_on_empty_dataset(self, tmp_path, empty_dataset, checkpoint):
        out = tmp_path / "eval"
        with pytest.raises(ValueError, match="empty.jsonl holds no instances$"):
            run(["evaluate", "--checkpoint", str(checkpoint), "--dataset",
                 str(empty_dataset), "--out", str(out)])
        assert not out.exists()

    def test_evaluate_on_mixed_task_counts(self, tmp_path, checkpoint,
                                           mixed_dataset):
        dataset, first, second = mixed_dataset
        out = tmp_path / "eval"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(dataset))}: instance "
                                             rf"{second.instance_id} has 3 tasks, "
                                             rf"{first.instance_id} has 2$"):
            run(["evaluate", "--checkpoint", str(checkpoint), "--dataset",
                 str(dataset), "--out", str(out), "--pop-size", "6", "--budget", "2"])
        assert not out.exists()

    def test_evaluate_on_repeated_instance(self, tmp_path, checkpoint, one_instance):
        # both copies would get the same episode seeds
        line = one_instance.read_text()
        one_instance.write_text(line + line)
        instance_id = json.loads(line)["instance_id"]
        out = tmp_path / "eval"
        with pytest.raises(ValueError, match=rf"one\.jsonl, line 2: instance "
                                             rf"{instance_id} repeats line 1$"):
            run(["evaluate", "--checkpoint", str(checkpoint), "--dataset",
                 str(one_instance), "--out", str(out), "--pop-size", "6",
                 "--budget", "2"])
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_evaluate_with_non_finite_checkpoint_value(self, tmp_path, checkpoint,
                                                       one_instance, value):
        doc = json.loads(checkpoint.read_text())
        record = doc["parameters"][1]   # cr1.b
        record["values"][1] = float(value)
        checkpoint.write_text(json.dumps(doc))
        assert value in checkpoint.read_text()
        out = tmp_path / "eval"
        with pytest.raises(CheckpointError, match=rf"^checkpoint .*policy\.json: "
                                                  rf"parameter {record['name']} "
                                                  rf"is not finite$"):
            run(["evaluate", "--checkpoint", str(checkpoint), "--dataset",
                 str(one_instance), "--out", str(out), "--pop-size", "6"])
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_generate_limit_below_one(self, tmp_path, limit):
        out = tmp_path / "set.jsonl"
        with pytest.raises(ValueError, match=f"^--limit must be >= 1, got {limit}$"):
            run(["generate", "--level", "vs", "--seed", "4", "--tasks", "2",
                 "--dim", "2", "--out", str(out), "--limit", limit])
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        (["evaluate"], "--runs"), (["evaluate"], "--budget"),
        (["ablate", "--variant", "no_transfer"], "--runs"),
        (["ablate", "--variant", "no_transfer"], "--budget")])
    def test_evaluation_below_one_run_or_generation(self, tmp_path, checkpoint,
                                                    one_instance, command, flag):
        out = tmp_path / "eval"
        with pytest.raises(ValueError, match=f"^{flag[2:]} must be >= 1, got 0$"):
            run([*command, "--checkpoint", str(checkpoint), "--dataset",
                 str(one_instance), "--out", str(out), "--pop-size", "6", flag, "0"])
        assert not out.exists()

    def test_export_attention_zero_budget(self, tmp_path, checkpoint, one_instance):
        out = tmp_path / "attention.csv"
        with pytest.raises(ValueError, match="^budget must be >= 1, got 0$"):
            run(["export-attention", "--checkpoint", str(checkpoint),
                 "--instance", str(one_instance), "--out", str(out), "--budget", "0"])
        assert not out.exists()

    def test_export_attention_index_out_of_range(self, tmp_path, checkpoint,
                                                 one_instance):
        out = tmp_path / "attention.csv"
        with pytest.raises(ValueError, match=r"^--index 5 is out of range: "
                                             r".*one\.jsonl holds 1 instances$"):
            run(["export-attention", "--checkpoint", str(checkpoint),
                 "--instance", str(one_instance), "--out", str(out), "--index", "5"])
        assert not out.exists()


class TestOutputPaths:
    """Outputs are prepared before the first episode, so a bad path costs
    no episode and the error names it."""
    @pytest.fixture()
    def episodes(self, monkeypatch):
        calls = []
        original = H.run_episode

        def counting(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(H, "run_episode", counting)
        return calls

    @pytest.fixture()
    def run_flags(self, tmp_path):
        checkpoint, dataset = tmp_path / "policy.json", tmp_path / "one.jsonl"
        save_checkpoint(init_policy(0), str(checkpoint))
        B.save_instances(B.sample_instances(0.2, seed=2, n_tasks=2, dim=2,
                                            count=1), str(dataset))
        return ["--checkpoint", str(checkpoint), "--pop-size", "6",
                "--budget", "2"], str(dataset)

    @pytest.mark.parametrize("command", [["evaluate"],
                                         ["ablate", "--variant", "no_transfer"]])
    def test_evaluate_out_is_a_file(self, tmp_path, run_flags, episodes, command):
        flags, dataset = run_flags
        out = tmp_path / "taken"
        out.write_text("")
        with pytest.raises(FileExistsError, match=re.escape(str(out))):
            run([*command, *flags, "--dataset", dataset, "--out", str(out)])
        assert episodes == []

    def test_export_attention_out_under_a_file(self, tmp_path, run_flags, episodes):
        flags, dataset = run_flags
        parent = tmp_path / "taken"
        parent.write_text("")
        with pytest.raises(FileExistsError, match=re.escape(str(parent))):
            run(["export-attention", *flags, "--instance", dataset,
                 "--out", str(parent / "a.csv")])
        assert episodes == []

    def test_export_attention_zero_budget_leaves_no_directory(self, tmp_path,
                                                              run_flags, episodes):
        flags, dataset = run_flags
        out = tmp_path / "new" / "attention.csv"
        with pytest.raises(ValueError, match="^budget must be >= 1, got 0$"):
            run(["export-attention", *flags, "--instance", dataset,
                 "--out", str(out), "--budget", "0"])
        assert not out.parent.exists()
        assert episodes == []

    @pytest.mark.parametrize("command,dataset_flag", [
        (["evaluate"], "--dataset"),
        (["ablate", "--variant", "no_transfer"], "--dataset"),
        (["export-attention"], "--instance")])
    def test_population_below_four_leaves_no_directory(self, tmp_path, run_flags,
                                                       episodes, command,
                                                       dataset_flag):
        flags, dataset = run_flags
        out = tmp_path / "new" / "out"
        with pytest.raises(ValueError, match="^population size must be >= 4 "
                                             "for DE/rand/1, got 3$"):
            run([*command, *flags, dataset_flag, dataset, "--out", str(out),
                 "--pop-size", "3"])
        assert not (tmp_path / "new").exists()
        assert episodes == []

    def test_export_attention_creates_missing_directory(self, tmp_path, run_flags,
                                                        episodes):
        flags, dataset = run_flags
        out = tmp_path / "a" / "b" / "attention.csv"
        run(["export-attention", *flags, "--instance", dataset, "--out", str(out)])
        assert len(episodes) == 1
        # a header and K x K scores for each of the 2 generations
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2


class TestCompareInputs:
    """A results file that compare cannot read fails with its file and line."""

    @pytest.fixture()
    def results(self, tmp_path):
        path = tmp_path / "results.csv"
        H.write_results_csv([H.EvaluationRow("i", r, 0.1 * (r + 1), np.array([0.5]),
                                             0.25) for r in range(3)], str(path))
        return path

    def compare(self, tmp_path, results, text):
        other = tmp_path / "other.csv"
        other.write_text(text)
        out = tmp_path / "summary.txt"
        with pytest.raises(ValueError) as err:
            run(["compare", "--a", str(results), "--b", str(other),
                 "--out", str(out)])
        assert not out.exists()
        return str(err.value)

    def test_trace_file_rejected(self, tmp_path, results):
        text = ",".join(["instance_id", "run", *H.TRACE_COLUMNS]) + "\n"
        text += "i,0," + ",".join(["1"] * len(H.TRACE_COLUMNS)) + "\n"
        message = self.compare(tmp_path, results, text)
        assert message == f"{tmp_path / 'other.csv'}, line 1: missing column perf"

    def test_value_that_does_not_parse_rejected(self, tmp_path, results):
        lines = results.read_text().splitlines()
        lines[2] = lines[2].replace("0.2", "abc", 1)
        message = self.compare(tmp_path, results, "\n".join(lines) + "\n")
        assert message.startswith(f"{tmp_path / 'other.csv'}, line 3: ")
        assert "'abc'" in message

    @pytest.mark.parametrize("column, name, value", [
        (2, "perf", "nan"), (3, "kt_success_ratio", "inf")])
    def test_non_finite_value_rejected(self, tmp_path, results, column, name,
                                       value):
        lines = results.read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = value
        lines[3] = ",".join(fields)
        message = self.compare(tmp_path, results, "\n".join(lines) + "\n")
        assert message == (f"{tmp_path / 'other.csv'}, line 4: {name} is {value}, "
                           "expected a finite number")

    @pytest.mark.parametrize("edit, error", [
        (lambda f: f + ["0.7"], "line 3: 6 fields, the header has 5"),
        (lambda f: f[:-1], "line 3: 4 fields, the header has 5")],
        ids=["extra", "missing"])
    def test_field_count_differs_from_header(self, tmp_path, results, edit, error):
        lines = results.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        message = self.compare(tmp_path, results, "\n".join(lines) + "\n")
        assert message == f"{tmp_path / 'other.csv'}, {error}"

    def test_task_column_name_that_does_not_parse(self, tmp_path, results):
        text = results.read_text().replace("perf_task_0", "perf_task_x", 1)
        message = self.compare(tmp_path, results, text)
        assert message.startswith(f"{tmp_path / 'other.csv'}, line 1: ")
        assert "'x'" in message

    def test_repeated_instance_and_run_rejected(self, tmp_path, results):
        lines = results.read_text().splitlines()
        lines[3] = lines[2].replace("0.2", "0.3", 1)
        message = self.compare(tmp_path, results, "\n".join(lines) + "\n")
        assert message == (f"{tmp_path / 'other.csv'}, line 4: instance i run 1 "
                           "repeats line 3")


class TestEvaluationCommand:
    """ablate is an alias of evaluate, whose --variant defaults to full."""

    @pytest.fixture()
    def outputs(self, tmp_path, tiny_dataset):
        checkpoint = tmp_path / "policy.json"
        save_checkpoint(init_policy(0), str(checkpoint))

        def evaluate(*command):
            out = tmp_path / "_".join(command)
            run([*command, "--checkpoint", str(checkpoint), "--dataset",
                 str(tiny_dataset), "--runs", "2", "--seed", "1", "--out", str(out),
                 "--pop-size", "6", "--budget", "5"])
            return [(out / name).read_bytes() for name in ("results.csv", "trace.csv")]
        return evaluate

    def test_ablate_writes_what_evaluate_variant_writes(self, outputs):
        no_f = outputs("evaluate", "--variant", "no_f")
        assert outputs("ablate", "--variant", "no_f") == no_f
        assert outputs("evaluate") != no_f

    def test_ablate_without_variant_runs_full(self, outputs):
        assert outputs("ablate") == outputs("evaluate")
