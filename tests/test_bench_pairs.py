"""The claim rule and the regression verdict of tools/bench_pairs.py on
hand-made pairs."""

import glob
import importlib.util
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"cpu_s": {"better": "lower", "bound": 0.25},
        "evals_per_s": {"better": "higher", "bound": 0.25}}


def run(cpu_s, evals_per_s, failed=0, attempted=20, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"cpu_s": cpu_s, "evals_per_s": evals_per_s}}


def pairs(n=10, **change):
    """n pairs in which the change is 25% faster; `change` overrides the
    change side's run fields."""
    out = []
    for i in range(n):
        parent = run(10.0 + 0.1 * i, 100.0 + i)
        faster = dict(dict(cpu_s=7.5 + 0.1 * i, evals_per_s=130.0 + i), **change)
        out.append({"parent": parent, "change": run(**faster),
                    "digests_equal": True})
    return out


class TestSummarize:
    def test_clear_gain_meets_claim_rule(self):
        summary = bench_pairs.summarize(pairs(), SPEC)
        assert summary["outputs"]["kept"]
        for name in SPEC:
            s = summary["metrics"][name]
            assert s["change_wins"] == 10 and s["parent_wins"] == 0
            assert s["claim_rule_met"], name
        assert summary["metrics"]["cpu_s"]["relative_change"] == pytest.approx(
            7.95 / 10.45 - 1.0)

    def test_eight_of_ten_wins_do_not_meet_it(self):
        p = pairs()
        for pair in p[:2]:
            pair["change"]["metrics"]["cpu_s"] = 20.0
        s = bench_pairs.summarize(p, SPEC)["metrics"]["cpu_s"]
        assert s["change_wins"] == 8 and s["parent_wins"] == 2
        assert not s["claim_rule_met"]

    def test_gain_within_parent_spread_does_not_meet_it(self):
        p = pairs()
        for i, pair in enumerate(p):
            pair["parent"]["metrics"]["cpu_s"] = 10.0 + 2.0 * i
            pair["change"]["metrics"]["cpu_s"] = 9.9 + 2.0 * i
        s = bench_pairs.summarize(p, SPEC)["metrics"]["cpu_s"]
        assert s["change_wins"] == 10
        assert not s["claim_rule_met"]

    def test_changed_digests_void_every_claim(self):
        p = pairs()
        p[3]["digests_equal"] = False
        summary = bench_pairs.summarize(p, SPEC)
        assert not summary["outputs"]["digests_equal"]
        assert not summary["outputs"]["kept"]
        assert not any(s["claim_rule_met"] for s in summary["metrics"].values())

    def test_larger_failed_share_voids_every_claim(self):
        summary = bench_pairs.summarize(pairs(failed=1, attempted=30), SPEC)
        assert summary["outputs"]["failed_share"] == {"parent": 0.0,
                                                      "change": 1 / 30}
        assert not summary["outputs"]["kept"]
        assert not any(s["claim_rule_met"] for s in summary["metrics"].values())

    def test_failed_run_voids_every_claim(self):
        p = pairs()
        p[0]["change"]["correct"] = False
        summary = bench_pairs.summarize(p, SPEC)
        assert summary["outputs"]["incorrect_runs"] == {"parent": 0, "change": 1}
        assert not any(s["claim_rule_met"] for s in summary["metrics"].values())

    def test_smaller_failed_share_keeps_claim(self):
        # more episodes at the same failure count is a smaller share
        p = pairs(failed=1, attempted=40)
        for pair in p:
            pair["parent"]["failed"] = 1
        summary = bench_pairs.summarize(p, SPEC)
        assert summary["outputs"]["kept"]
        assert summary["metrics"]["cpu_s"]["claim_rule_met"]


def set_metric(p, name, parent, change):
    for pair, b, c in zip(p, parent, change):
        pair["parent"]["metrics"][name] = b
        pair["change"]["metrics"][name] = c


class TestRegression:
    def test_clear_gain_reads_none(self):
        summary = bench_pairs.summarize(pairs(), SPEC)
        assert {s["regression"] for s in summary["metrics"].values()} == {"none"}
        assert summary["no_regression"]

    def test_small_loss_within_bound_reads_none(self):
        # 10% slower and every pair lost, but inside the 0.25 bound
        p = pairs(3)
        set_metric(p, "cpu_s", [10.0, 10.1, 10.2], [11.0, 11.1, 11.2])
        summary = bench_pairs.summarize(p, SPEC)
        assert summary["metrics"]["cpu_s"]["regression"] == "none"
        assert summary["no_regression"]

    @pytest.mark.parametrize("name, parent, change", [
        ("cpu_s", [10.0, 10.1, 10.2], [12.6, 12.7, 12.8]),
        ("evals_per_s", [100.0, 101.0, 102.0], [75.0, 75.5, 76.0]),
    ])
    def test_median_past_bound_reads_worse(self, name, parent, change):
        p = pairs(3)
        set_metric(p, name, parent, change)
        summary = bench_pairs.summarize(p, SPEC)
        assert summary["metrics"][name]["regression"] == "worse"
        assert not summary["no_regression"]

    def test_pairs_past_bound_counts_each_pair(self):
        # the median is worse by 30%, but two of the five pairs are equal
        p = pairs(5)
        set_metric(p, "cpu_s", [10.0, 10.0, 10.0, 14.0, 14.0],
                   [13.0, 13.0, 13.0, 14.0, 14.0])
        set_metric(p, "evals_per_s", [100.0] * 5, [74.0, 76.0, 80.0, 70.0, 75.0])
        metrics = bench_pairs.summarize(p, SPEC)["metrics"]
        assert metrics["cpu_s"]["regression"] == "worse"
        assert metrics["cpu_s"]["pairs_past_bound"] == 3
        # 75.0 is exactly at the bound, which is not past it
        assert metrics["evals_per_s"]["pairs_past_bound"] == 2

    def test_median_past_bound_from_few_pairs_reads_unresolved(self):
        # the change's median is 30% worse, but only one pair is past the
        # bound: host noise that moved the two sides apart, not a loss
        p = pairs(5)
        set_metric(p, "cpu_s", [8.0, 8.0, 10.0, 13.0, 13.0],
                   [9.0, 9.0, 13.0, 13.0, 13.0])
        summary = bench_pairs.summarize(p, SPEC)
        assert summary["metrics"]["cpu_s"]["pairs_past_bound"] == 1
        assert summary["metrics"]["cpu_s"]["regression"] == "unresolved"
        assert not summary["no_regression"]

    def test_half_the_pairs_past_bound_is_not_more_than_half(self):
        p = pairs(4)
        # medians 10.2 and 12.9, 26% apart; 13.0 vs 10.0 is past, 12.8 vs
        # 10.4 is not
        set_metric(p, "cpu_s", [10.0, 10.0, 10.4, 10.4], [13.0, 13.0, 12.8, 12.8])
        metrics = bench_pairs.summarize(p, SPEC)["metrics"]
        assert metrics["cpu_s"]["pairs_past_bound"] == 2
        assert metrics["cpu_s"]["regression"] == "unresolved"

    def test_wide_parent_spread_reads_unresolved(self):
        # the parent's quartiles span 5 s, more than 0.25 x its 10 s median
        p = pairs(3)
        set_metric(p, "cpu_s", [5.0, 10.0, 15.0], [9.0, 9.5, 14.0])
        summary = bench_pairs.summarize(p, SPEC)
        assert summary["metrics"]["cpu_s"]["regression"] == "unresolved"
        assert not summary["no_regression"]

    def test_wide_parent_spread_beaten_by_every_run_reads_none(self):
        p = pairs(3)
        set_metric(p, "cpu_s", [5.0, 10.0, 15.0], [3.0, 3.5, 4.0])
        summary = bench_pairs.summarize(p, SPEC)
        assert summary["metrics"]["cpu_s"]["regression"] == "none"
        assert summary["no_regression"]


COUNTS = ["engine.self_evolve.offspring", "trace.spans"]


class TestTraceCounts:
    def test_equal_counts_differ_in_nothing(self):
        parent = {"engine.self_evolve.offspring": 10.0, "trace.spans": 5.0,
                  "engine.self_evolve.s": 1.0}
        change = dict(parent, **{"engine.self_evolve.s": 0.5})
        assert bench_pairs.counts_differ(parent, change, COUNTS) == []

    def test_names_each_differing_count(self):
        parent = {"engine.self_evolve.offspring": 10.0, "trace.spans": 5.0}
        change = {"engine.self_evolve.offspring": 10.0, "trace.spans": 4.0}
        assert bench_pairs.counts_differ(parent, change, COUNTS) == ["trace.spans"]

    def test_missing_count_differs(self):
        parent = {"engine.self_evolve.offspring": 10.0, "trace.spans": 5.0}
        change = {"trace.spans": 5.0}
        assert bench_pairs.counts_differ(parent, change, COUNTS) == [
            "engine.self_evolve.offspring"]

    def test_one_traced_run_per_side(self, monkeypatch):
        calls = []

        def run_once(checkout, workload, seed, trace=False):
            calls.append((checkout, workload, seed, trace))
            spans = 5.0 if checkout == "parent-dir" else 4.0
            metrics = {"engine.self_evolve.offspring": 10.0, "trace.spans": spans}
            return {"metrics": {name: {"value": value, "unit": "count/round"}
                                for name, value in metrics.items()}}, {}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        result = bench_pairs.trace_workload("eval-paper", "parent-dir", 1, COUNTS)
        assert calls == [("parent-dir", "eval-paper", 1, True),
                         (bench_pairs.ROOT, "eval-paper", 1, True)]
        assert not result["counts_equal"]
        assert result["counts_differ"] == ["trace.spans"]
        assert result["metrics"]["change"]["trace.spans"] == 4.0


class TestPairOrder:
    def test_first_side_runs_once_more_before_each_pair(self, monkeypatch):
        calls = []
        cpu_s = iter([9.0, 12.0, 10.0, 9.0, 11.0, 10.0, 9.0, 12.0, 10.0])

        def run_once(checkout, workload, seed, trace=False):
            calls.append(checkout)
            result = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"cpu_s": {"value": next(cpu_s)},
                                  "evals_per_s": {"value": 1.0}}}
            return result, {"digests": {}, "environment": {"loadavg_at_start": 0.0}}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        result = bench_pairs.bench_workload("ablate-desk", 3, "parent-dir", 0,
                                            SPEC, {})
        root = bench_pairs.ROOT
        assert calls == ["parent-dir", "parent-dir", root,
                         root, root, "parent-dir",
                         "parent-dir", "parent-dir", root]
        # the discarded runs read 9.0 each; the kept ones 12/10, 11/10, 12/10
        assert [p["order"] for p in result["pairs"]] == [
            ["parent", "change"], ["change", "parent"], ["parent", "change"]]
        assert [p["parent"]["metrics"]["cpu_s"] for p in result["pairs"]] == [
            12.0, 10.0, 12.0]
        assert result["order_bias"] == {"parent_first": pytest.approx(1.2),
                                        "change_first": pytest.approx(1.1)}

    def test_order_no_pair_ran_has_no_bias(self):
        p = pairs(1)
        p[0]["order"] = ["parent", "change"]
        assert bench_pairs.order_bias(p) == {"parent_first": 10.0 / 7.5,
                                             "change_first": None}


class TestSrcLines:
    def test_counts_newlines_of_python_files_under_src(self, tmp_path):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "a.py").write_text("one\ntwo\nthree\n")
        (tmp_path / "src" / "pkg" / "b.py").write_text("one\nno newline")
        (tmp_path / "src" / "notes.txt").write_text("not\ncounted\n")
        (tmp_path / "c.py").write_text("outside src\n")
        assert bench_pairs.src_lines(str(tmp_path)) == 4

    def test_equals_wc_on_this_tree(self):
        paths = glob.glob(os.path.join(bench_pairs.ROOT, "src", "**", "*.py"),
                          recursive=True)
        out = subprocess.run(["wc", "-l", *paths], check=True,
                             capture_output=True, text=True).stdout
        assert bench_pairs.src_lines(bench_pairs.ROOT) == int(out.split()[-2])
