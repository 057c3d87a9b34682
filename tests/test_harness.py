"""Controllers, metrics, evaluation determinism, and comparison output."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from emtlab import benchmarks as B
from emtlab import harness as H
from emtlab import policy as P
from emtlab.nn.params import Parameter, load_checkpoint, save_checkpoint
from emtlab.seeds import derive_rng, derive_seed
from emtlab.stats import wilcoxon_signed_rank
from tests.test_engine import reference_de_run
from tests.test_policy import random_features


def instances_for_tests(count=2, n_tasks=3, dim=3, seed=5):
    return B.sample_instances(0.2, seed=seed, n_tasks=n_tasks, dim=dim,
                              count=count)


# sphere on a +-1e200 box overflows to inf at every point of task 1
OVERFLOW_MESSAGE = (r"^instance wide-box task 1 \(sphere on \[-1e\+200, 1e\+200\]\): "
                    "initial fitness is not finite$")


def overflowing_instance():
    sphere = B.BasicFunction.SPHERE
    subs = [B.SubTaskDefinition(sphere, 3, np.eye(3), np.zeros(3), -bound, bound)
            for bound in (100.0, 1e200, 100.0)]
    return B.MTOInstance("wide-box", 0.2, (sphere,), subs)


class TestKTSuccessRatio:
    """(G, K) transfer and survivor counts per generation and task."""

    def test_all_survive(self):
        counts = np.array([[5, 5], [2, 0]])
        assert H.kt_success_ratio(counts, counts) == 1.0

    def test_no_transfers_is_zero(self):
        assert H.kt_success_ratio(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0

    def test_skips_empty_generations(self):
        n_transfer = np.array([[2, 2], [4, 0], [0, 0]])
        n_success = np.array([[1, 1],    # 0.5
                              [1, 0],    # 0.25
                              [0, 0]])   # skipped
        assert H.kt_success_ratio(n_transfer, n_success) == pytest.approx(0.375)


class TestNormalizedRatios:
    def test_reaching_optimum_is_zero(self):
        out = H.normalized_ratios(np.zeros((2, 3)), np.full((2, 3), 5.0))
        np.testing.assert_array_equal(out, 0.0)

    def test_no_improvement_is_one(self):
        f0 = np.full((2, 3), 5.0)
        np.testing.assert_array_equal(H.normalized_ratios(f0.copy(), f0), 1.0)

    def test_run_averaging(self):
        final = np.array([[1.0], [2.0]])
        f0 = np.array([[5.0], [5.0]])
        ratios = H.normalized_ratios(final, f0)
        np.testing.assert_allclose(ratios, [[0.2], [0.4]])
        assert ratios.mean() == pytest.approx(0.3)

    def test_degenerate_normalizer(self):
        out = H.normalized_ratios(np.array([0.0, 3.0]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_overshoot_clamped(self, caplog):
        with caplog.at_level("WARNING"):
            out = H.normalized_ratios(np.array([6.0]), np.array([5.0]))
        np.testing.assert_array_equal(out, [1.0])
        assert "clamping" in caplog.text

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        f0 = rng.uniform(0, 100, size=6)
        f0[rng.random(6) < 0.2] = 0.0  # sprinkle degenerate normalizers
        final = f0 * rng.uniform(0, 1.2, size=6)  # occasional overshoot
        out = H.normalized_ratios(final, f0)
        assert (out >= 0.0).all() and (out <= 1.0).all()


class TestControllers:
    @staticmethod
    def _setup(k=5, seed=33):
        return P.init_policy(seed), random_features(k, seed)

    def test_unknown_variant_rejected(self):
        store, _ = self._setup()
        with pytest.raises(ValueError, match="unknown variant"):
            H.Controller(store, "no_everything")

    def test_full_matches_plain_policy(self):
        store, f = self._setup()
        bundle, _ = H.Controller(store, "full").act(f, derive_rng(0, "ab"))
        direct = P.act_with_context(store, f, None)[0]
        np.testing.assert_array_equal(bundle.a1, direct.a1)
        np.testing.assert_array_equal(bundle.a2, direct.a2)
        np.testing.assert_array_equal(bundle.a31, direct.a31)
        np.testing.assert_array_equal(bundle.a32, direct.a32)
        np.testing.assert_array_equal(bundle.a33, direct.a33)

    @pytest.mark.parametrize("variant,field,others", [
        ("no_f", "a32", ("a1", "a2", "a31", "a33")),
        ("no_cr", "a33", ("a1", "a2", "a31", "a32")),
    ])
    def test_fixed_value_variants_change_only_their_field(self, variant,
                                                          field, others):
        store, f = self._setup()
        full = P.act_with_context(store, f, None)[0]
        bundle, _ = H.Controller(store, variant).act(f, derive_rng(0, "ab"))
        np.testing.assert_array_equal(getattr(bundle, field), 0.5)
        for name in others:
            np.testing.assert_array_equal(getattr(bundle, name),
                                          getattr(full, name))

    def test_no_kc_draws_uniform_full_range(self):
        store, f = self._setup()
        controller = H.Controller(store, "no_kc")
        rng = derive_rng(1, "ab")
        draws = np.concatenate([controller.act(f, ablation_rng=rng)[0].a2
                                for _ in range(400)])
        assert draws.max() > 0.9 and draws.min() < 0.1  # exceeds the 0.5 cap
        assert abs(draws.mean() - 0.5) < 3 * (1 / np.sqrt(12 * len(draws)))

    def test_no_op_uniform_over_pool(self):
        store, f = self._setup()
        controller = H.Controller(store, "no_op")
        rng = derive_rng(2, "ab")
        draws = np.concatenate([controller.act(f, ablation_rng=rng)[0].a31
                                for _ in range(400)])
        counts = np.bincount(draws, minlength=5)[1:5]
        freq = counts / len(draws)
        assert (np.abs(freq - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / len(draws))).all()

    def test_no_tr_uniform_source_frequencies(self):
        store, f = self._setup(k=5)
        controller = H.Controller(store, "no_tr")
        rng = derive_rng(3, "ab")
        k, n = 5, 2500
        counts = np.zeros((k, k))
        for _ in range(n):
            bundle, _ = controller.act(f, ablation_rng=rng)
            assert (bundle.a1 != np.arange(k)).all()
            counts[np.arange(k), bundle.a1] += 1
        freq = counts / n
        expected = 1.0 / (k - 1)
        sigma = np.sqrt(expected * (1 - expected) / n)
        offdiag = freq[~np.eye(k, dtype=bool)]
        assert (np.abs(offdiag - expected) <= 3 * sigma + 1e-9).all()

    def test_no_tr_keeps_downstream_heads(self):
        # the other heads must behave exactly like the full policy fed the
        # substituted routing
        store, f = self._setup()
        controller = H.Controller(store, "no_tr")
        bundle, _ = controller.act(f, ablation_rng=derive_rng(4, "ab"))
        recomputed = P.act_with_context(store, f, forced_a1=bundle.a1)[0]
        np.testing.assert_array_equal(bundle.a2, recomputed.a2)
        np.testing.assert_array_equal(bundle.a31, recomputed.a31)
        np.testing.assert_array_equal(bundle.a32, recomputed.a32)
        np.testing.assert_array_equal(bundle.a33, recomputed.a33)

    def test_no_transfer_zeroes_amount(self):
        store, f = self._setup()
        bundle, _ = H.Controller(store, "no_transfer").act(f, derive_rng(0, "ab"))
        np.testing.assert_array_equal(bundle.a2, 0.0)

    def test_random_all_substitutes_everything(self):
        store, f = self._setup()
        bundle, _ = H.Controller(store, "random_all").act(
            f, ablation_rng=derive_rng(5, "ab"))
        k = len(bundle.a1)
        assert (bundle.a1 != np.arange(k)).all()
        np.testing.assert_array_equal(bundle.a32, 0.5)
        np.testing.assert_array_equal(bundle.a33, 0.5)
        assert set(bundle.a31) <= {1, 2, 3, 4}
        assert (bundle.a2 >= 0).all() and (bundle.a2 <= 1).all()

    @pytest.mark.parametrize("misfit, message", [
        ("missing", r"critic2\.b \(expected shape \(1, 1\)\) is missing"),
        ("extra", r"unexpected extra\.W \(shape \(2, 3\)\)"),
        ("reshaped", r"fe\.W has shape \(5, 32\), expected \(5, 64\)"),
    ], ids=["missing", "extra", "reshaped"])
    def test_checkpoint_not_fitting_network_rejected(self, tmp_path, misfit,
                                                     message):
        store = P.init_policy(33)
        if misfit == "missing":
            del store.params["critic2.b"]
        elif misfit == "extra":
            store.add("extra.W", np.zeros((2, 3)))
        else:
            store.params["fe.W"] = Parameter(np.zeros((5, 32)))
        path = str(tmp_path / "checkpoint.json")
        save_checkpoint(store, path)
        with pytest.raises(ValueError, match=message):
            H.Controller(load_checkpoint(path), "full")


class TestRunEpisode:
    def test_structure_and_determinism(self):
        inst = instances_for_tests(1)[0]
        controller = H.Controller(P.init_policy(41), "full")
        a = H.run_episode(inst, controller, 123, pop_size=8, budget=6)
        b = H.run_episode(inst, controller, 123, pop_size=8, budget=6)
        assert a.best_trace.shape == (7, 3)
        np.testing.assert_array_equal(a.best_trace, b.best_trace)
        assert a.kt_ratio == b.kt_ratio
        assert len(a.trace) == 6 * 3
        assert len(a.attention) == 6 and a.attention[0].shape == (3, 3)
        # best-so-far trace is monotone non-increasing per task
        assert (np.diff(a.best_trace, axis=0) <= 1e-15).all()

    def test_record_memory(self):
        # one K=10, G=250 record holds the (G*K, 16) trace, the (G, K, K)
        # routing scores and the (G+1, K) best-so-far: about 0.54 MB.  Its
        # size does not depend on D or N, so small ones keep the test quick.
        inst = instances_for_tests(1, n_tasks=10, dim=2)[0]
        controller = H.Controller(P.init_policy(47), "full")
        H.run_episode(inst, controller, 1, pop_size=4, budget=2)  # warm caches
        tracemalloc.start()
        try:
            ep = H.run_episode(inst, controller, 1, pop_size=4, budget=250)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ep.trace.shape == (250 * 10, len(H.TRACE_COLUMNS))
        assert ep.attention.shape == (250, 10, 10)
        assert held <= 0.6e6, f"one episode record holds {held} bytes"

    def test_no_transfer_matches_independent_de(self):
        inst = instances_for_tests(1, n_tasks=2, dim=3)[0]
        controller = H.Controller(P.init_policy(43), "no_transfer")
        ep_seed = 55
        ep = H.run_episode(inst, controller, ep_seed, pop_size=6, budget=10)
        engine_seed = derive_seed(ep_seed, "engine")
        for j, defn in enumerate(inst.sub_tasks):
            _, _, best = reference_de_run(defn, derive_rng(engine_seed, "task", j),
                                          6, 10)
            np.testing.assert_array_equal(ep.best_trace[:, j], best)


class TestEvaluate:
    def test_row_counts_and_determinism(self, tmp_path):
        insts = instances_for_tests(2)
        controller = H.Controller(P.init_policy(47), "full")
        rows1, _ = H.evaluate(controller, insts, runs=1, master_seed=3,
                              pop_size=8, budget=5)
        assert len(rows1) == 2
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        H.write_results_csv(rows1, str(a))
        rows2, _ = H.evaluate(controller, insts, runs=1, master_seed=3,
                              pop_size=8, budget=5)
        H.write_results_csv(rows2, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_schedule_stable_under_added_instances(self):
        insts = instances_for_tests(3)
        controller = H.Controller(P.init_policy(47), "full")
        rows_small, _ = H.evaluate(controller, insts[:2], runs=2, master_seed=7,
                                   pop_size=8, budget=4)
        rows_big, _ = H.evaluate(controller, insts, runs=2, master_seed=7,
                                 pop_size=8, budget=4)
        small = {(r.instance_id, r.run_index): r.perf for r in rows_small}
        big = {(r.instance_id, r.run_index): r.perf for r in rows_big}
        for key, value in small.items():
            assert big[key] == value

    def test_results_csv_round_trip(self, tmp_path):
        insts = instances_for_tests(2)
        controller = H.Controller(P.init_policy(47), "full")
        rows, _ = H.evaluate(controller, insts, runs=2, master_seed=3,
                             pop_size=8, budget=5)
        path = tmp_path / "r.csv"
        H.write_results_csv(rows, str(path))
        loaded = H.read_results_csv(str(path))
        assert len(loaded) == len(rows)
        for orig, back in zip(rows, loaded):
            assert orig.instance_id == back.instance_id
            assert orig.perf == back.perf
            np.testing.assert_array_equal(orig.perf_tasks, back.perf_tasks)

    def test_results_csv_rejects_differing_task_counts(self, tmp_path):
        # the header has one perf_task column per task of the first row
        rows = [H.EvaluationRow("a", 0, 0.5, np.full(3, 0.5), 0.0),
                H.EvaluationRow("a", 1, 0.5, np.full(3, 0.5), 0.0),
                H.EvaluationRow("b", 2, 0.5, np.full(2, 0.5), 0.0)]
        path = tmp_path / "r.csv"
        with pytest.raises(ValueError, match="^instance b run 2 has 2 tasks, "
                                             "instance a run 0 has 3$"):
            H.write_results_csv(rows, str(path))
        assert not path.exists()

    def test_perf_in_unit_interval(self):
        insts = instances_for_tests(2)
        controller = H.Controller(P.init_policy(47), "random_all")
        rows, _ = H.evaluate(controller, insts, runs=2, master_seed=11,
                             pop_size=8, budget=5)
        for r in rows:
            assert 0.0 <= r.perf <= 1.0
            assert (r.perf_tasks >= 0).all() and (r.perf_tasks <= 1).all()
            assert 0.0 <= r.kt_success_ratio <= 1.0

    def test_overflowing_fitness_raises(self):
        # the policy-driven and the policy-free controller both stop at
        # initialization, before a NaN feature or routing can stop them
        for variant in ("full", "random_all"):
            controller = H.Controller(P.init_policy(47), variant)
            with pytest.raises(ValueError, match=OVERFLOW_MESSAGE):
                H.evaluate(controller, [overflowing_instance()], runs=1,
                           master_seed=3, pop_size=8, budget=3)

    def test_nan_final_best_raises(self, monkeypatch):
        # normalized_ratios scores a NaN final value as 0, the optimum
        run_episode = H.run_episode

        def nan_final(*args):
            ep = run_episode(*args)
            ep.best_trace[-1, 1] = np.nan
            return ep
        monkeypatch.setattr(H, "run_episode", nan_final)
        insts = instances_for_tests(2)
        controller = H.Controller(P.init_policy(47), "full")
        with pytest.raises(ValueError, match=f"^instance {insts[0].instance_id} run 0: "):
            H.evaluate(controller, insts, runs=2, master_seed=3, pop_size=8, budget=3)

    @pytest.mark.parametrize("counts, message", [
        ({"runs": 0}, "^runs must be >= 1, got 0$"),
        ({"budget": 0}, "^budget must be >= 1, got 0$"),
        ({"pop_size": 3}, "^population size must be >= 4 for DE/rand/1, got 3$"),
    ], ids=["runs", "budget", "pop_size"])
    def test_bad_count_raises_before_any_episode(self, monkeypatch, counts, message):
        calls = []
        run_episode = H.run_episode

        def counting(*args):
            calls.append(args)
            return run_episode(*args)
        monkeypatch.setattr(H, "run_episode", counting)
        controller = H.Controller(P.init_policy(47), "full")
        with pytest.raises(ValueError, match=message):
            H.evaluate(controller, instances_for_tests(1), master_seed=3,
                       **dict({"runs": 1, "pop_size": 8, "budget": 3}, **counts))
        assert calls == []


class TestWilcoxon:
    def test_identical_samples_rejected(self):
        x = np.arange(10.0)
        with pytest.raises(ValueError, match="insufficient"):
            wilcoxon_signed_rank(x, x)

    def test_all_positive_differences_significant(self):
        rng = derive_rng(1, "w")
        y = rng.random(20)
        x = y + rng.uniform(0.5, 1.0, 20)
        stat, p = wilcoxon_signed_rank(x, y)
        assert stat == 0.0
        assert p < 0.01

    def test_symmetric_differences_not_significant(self):
        y = np.zeros(20)
        x = np.tile([0.5, -0.5], 10)
        _, p = wilcoxon_signed_rank(x, y)
        assert p > 0.5

    def test_matches_scipy_normal_approximation(self):
        rng = derive_rng(2, "w")
        for trial in range(20):
            n = int(rng.integers(8, 40))
            x = rng.normal(size=n)
            y = x + rng.normal(scale=0.8, size=n)
            if trial % 3 == 0:   # force ties in |d|
                y = np.round(y, 1)
            d = x - y
            if np.count_nonzero(d) < 6:
                continue
            stat, p = wilcoxon_signed_rank(x, y)
            ref = scipy.stats.wilcoxon(x, y, zero_method="wilcox",
                                       correction=False, method="approx")
            assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            wilcoxon_signed_rank(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("side, bad", [("x", np.nan), ("y", np.nan),
                                           ("x", np.inf), ("y", -np.inf)])
    def test_non_finite_input_rejected(self, side, bad):
        # a NaN difference counts in n but falls in neither rank sum, so
        # it would give a wrong p-value (0.0117 here) instead of failing
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        y = np.zeros(8)
        {"x": x, "y": y}[side][-1] = bad
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(x, y)

    def test_non_finite_perf_reads_n_a_in_comparison(self):
        rows_a = [H.EvaluationRow("i", r, 0.1 * (r + 1), np.array([0.5]), 0.0)
                  for r in range(8)]
        rows_b = [H.EvaluationRow("i", r, 0.0, np.array([0.5]), 0.0)
                  for r in range(8)]
        rows_a[-1].perf = np.nan
        text = H.compare_results(rows_a, rows_b, "A", "B")
        assert "p=n/a (inputs must be finite)" in text
        assert "overall signed-rank: n/a (inputs must be finite)" in text


class TestCompare:
    def test_summary_content(self, tmp_path):
        insts = instances_for_tests(2)
        better = H.Controller(P.init_policy(47), "full")
        rows_a, _ = H.evaluate(better, insts, runs=8, master_seed=3,
                               pop_size=8, budget=6)
        rows_b = [H.EvaluationRow(r.instance_id, r.run_index,
                                  min(1.0, r.perf + 0.2),
                                  np.minimum(1.0, r.perf_tasks + 0.2),
                                  r.kt_success_ratio)
                  for r in rows_a]
        text = H.compare_results(rows_a, rows_b, "left", "right")
        assert "2 wins / 0 ties / 0 losses" in text
        assert "overall signed-rank" in text
        assert "paired runs: 16" in text

    def test_disjoint_results_rejected(self):
        row_a = H.EvaluationRow("x", 0, 0.5, np.array([0.5]), 0.0)
        row_b = H.EvaluationRow("y", 0, 0.5, np.array([0.5]), 0.0)
        with pytest.raises(ValueError, match="share no"):
            H.compare_results([row_a], [row_b], "A", "B")
