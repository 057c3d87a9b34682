"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

The desk-scale policy used by the advantage, transfer-quality, and
variable-K criteria is the smoke-test training product at master seed 1
(the first of the three pinned seeds).  The routing-sanity study trains
its own desk-scale model on a similarity-rich subset of the problem
distribution, mirroring the dedicated model the heatmap analysis uses;
see the module-level notes on that test.
"""

import time

import numpy as np
import pytest

from emtlab import benchmarks as B
from emtlab import engine as E
from emtlab import harness as H
from emtlab import policy as P
from emtlab import ppo
from emtlab.nn import tape
from emtlab.seeds import derive_rng, derive_seed
from emtlab.stats import wilcoxon_signed_rank
from tests.test_benchmarks import MINIMIZERS
from tests.test_policy import random_features, task_rngs
from tests.test_tape import fd_gradcheck

# desk-scale configuration shared by the training-dependent criteria
LEVEL = 0.2
N_TASKS = 5
DIM = 10
POP_SIZE = 30
BUDGET = 100
N_TRAIN_INSTANCES = 20
SMOKE_SEEDS = (1, 2, 3)
HELD_OUT_SEED = 202
EVAL_SEED = 7
EVAL_RUNS = 5


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def train_set():
    return B.sample_instances(LEVEL, seed=101, n_tasks=N_TASKS, dim=DIM,
                              count=N_TRAIN_INSTANCES)


@pytest.fixture(scope="module")
def smoke_runs(train_set, tmp_path_factory):
    """Three full desk-scale trainings (the slow part of this suite)."""
    config = ppo.PPOConfig(epochs=3, budget=BUDGET)
    out = {}
    start = time.perf_counter()
    for seed in SMOKE_SEEDS:
        out[seed] = ppo.train(train_set, config, seed=seed, pop_size=POP_SIZE,
                              out_dir=str(tmp_path_factory.mktemp("smoke")))
    out["wall_time"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def desk_policy(smoke_runs):
    return smoke_runs[SMOKE_SEEDS[0]].params


@pytest.fixture(scope="module")
def held_out():
    return B.sample_instances(LEVEL, seed=HELD_OUT_SEED, n_tasks=N_TASKS,
                              dim=DIM, count=10)


@pytest.fixture(scope="module")
def held_out_rows(desk_policy, held_out):
    rows = {}
    for variant in ("full", "random_all", "no_transfer"):
        rows[variant], _ = H.evaluate(H.Controller(desk_policy, variant),
                                      held_out, runs=EVAL_RUNS,
                                      master_seed=EVAL_SEED,
                                      pop_size=POP_SIZE, budget=BUDGET)
    return rows


class TestBenchmarkCorrectness:
    def test_criterion(self):
        start = time.perf_counter()
        for fid in B.BasicFunction:
            z = np.full(50, MINIMIZERS.get(fid, 0.0))
            tol = 1e-2 if fid is B.BasicFunction.SCHWEFEL else 1e-8
            value = abs(B.evaluate_basic_batch(fid, z[None])[0])
            assert value < tol, f"{fid.key}: |f|={value:.3g}"
        counts = []
        worst_ortho = 0.0
        for level in B.SHIFT_LEVELS.values():
            instances = B.generate_awcci(level, seed=11, n_tasks=10, dim=50)
            counts.append(len(instances))
            for inst in instances[::25]:
                for st in inst.sub_tasks:
                    assert st.dim == 50
                assert inst.n_tasks == 10
            probe = instances[63].sub_tasks[0].rotation
            worst_ortho = max(worst_ortho,
                              np.abs(probe.T @ probe - np.eye(50)).max())
        elapsed = time.perf_counter() - start
        ok = (counts == [127] * 5 and sum(counts) == 635
              and worst_ortho < 1e-10 and elapsed < 60)
        report("benchmark-correctness", ok,
               f"127x5 instances, worst orthogonality {worst_ortho:.1e}, "
               f"{elapsed:.1f}s")


class TestGradientSuite:
    def test_criterion(self):
        """Every head (embedder, attention+bn, kc, op, F, Cr, critic) is
        exercised by one combined loss per seed; central finite differences
        at h=1e-5 must agree within relative error 1e-4."""
        start = time.perf_counter()
        n_seeds = 0
        for k in (2, 5):
            for seed in range(10):
                n_seeds += 1
                rng = derive_rng(seed, "accept-grad", k)
                store = P.init_policy(derive_seed(seed, "accept-params", k))
                feats = random_features(k, seed + 100 * k)
                bundle = P.act(store, feats, task_rngs(k, seed))
                w = rng.standard_normal((k, 64))

                def build():
                    e = P.embed(store, feats)
                    scores, decision = P.tr_forward(store, e)
                    probe = tape.sum_all(tape.mul(decision, tape.constant(w)))
                    logp, value, entropy = P.evaluate_actions(
                        store, feats, bundle)
                    return tape.add(tape.add(logp, value),
                                    tape.add(probe, entropy))
                fd_gradcheck(store, build, rng, max_coords=4)
        elapsed = time.perf_counter() - start
        report("gradient-suite", elapsed < 60,
               f"{n_seeds} seeds over K in (2, 5), {elapsed:.1f}s")


class TestEngineInvariants:
    def test_criterion(self):
        instance = B.sample_instances(LEVEL, seed=57, n_tasks=5, dim=10,
                                      count=1)[0]
        n, budget = 20, 100
        state = E.init_populations(instance, n, seed=91, budget=budget)
        evals_start = state.evaluations
        controller = H.Controller(P.init_policy(91), "random_all")
        ablation_rng = derive_rng(91, "ablation")
        prev_best = state.best_values()
        for t in range(budget):
            feats = E.extract_state(state)
            assert np.isfinite(feats).all()
            assert (feats >= 0).all() and (feats <= 1).all()
            assert set(np.unique(feats[:, 3])) <= {0.0, 1.0}
            bundle, _ = controller.act(feats, ablation_rng)
            assert (bundle.a1 != np.arange(5)).all()
            assert (bundle.a2 >= 0).all() and (bundle.a2 <= 1).all()
            assert set(bundle.a31) <= {1, 2, 3, 4}
            assert (bundle.a32 >= 0).all() and (bundle.a32 <= 1).all()
            assert (bundle.a33 >= 0).all() and (bundle.a33 <= 1).all()
            E.emt_step(state, bundle)
            cur = state.best_values()
            assert (cur <= prev_best + 1e-15).all(), "best-so-far regressed"
            prev_best = cur
        spent = state.evaluations - evals_start
        report("engine-invariants", spent == 5 * n * budget,
               f"evaluations {spent} == K*N*G, features and actions in range")


class TestOracleEquivalence:
    def test_criterion(self):
        """a2 = 0 for every task must reproduce an independently coded
        single-task DE/rand/1/bin bit for bit (K=2, N=6, D=3, G=10)."""
        from tests.test_engine import reference_de_run

        rng = derive_rng(21, "accept-oracle-inst")
        fid = B.BasicFunction.RASTRIGIN
        lb, ub = B.SEARCH_BOUNDS[fid]
        subs = [B.SubTaskDefinition(fid, 3, B.make_rotation(3, rng),
                                    B.make_shift(LEVEL, lb, ub, 3, rng), lb, ub)
                for _ in range(2)]
        instance = B.MTOInstance("oracle", LEVEL, (fid,), subs)
        seed = 4242
        state = E.init_populations(instance, 6, seed=seed, budget=10)
        k = 2
        action = P.ActionBundle(np.array([1, 0]), np.zeros(k),
                                np.ones(k, dtype=int), np.full(k, 0.5),
                                np.full(k, 0.7))
        for _ in range(10):
            E.emt_step(state, action)
        identical = True
        for j, defn in enumerate(instance.sub_tasks):
            positions, fitness, _ = reference_de_run(
                defn, derive_rng(seed, "task", j), 6, 10)
            identical &= np.array_equal(state.populations[j].positions, positions)
            identical &= np.array_equal(state.populations[j].fitness, fitness)
        report("oracle-equivalence", identical,
               "bit-identical to independent DE/rand/1/bin")


class TestTrainingSmoke:
    def test_criterion(self, smoke_runs):
        improved = 0
        details = []
        for seed in SMOKE_SEEDS:
            log = smoke_runs[seed].log
            by_epoch = {}
            for row in log:
                by_epoch.setdefault(row.epoch, []).append(row.episode_return)
            first = np.mean(by_epoch[min(by_epoch)])
            final = np.mean(by_epoch[max(by_epoch)])
            improved += final > first
            details.append(f"seed {seed}: {first:.1f}->{final:.1f}")
        wall = smoke_runs["wall_time"]
        ok = improved >= 2 and wall < 1800
        report("training-smoke", ok,
               f"{improved}/3 seeds improved, {wall:.0f}s < 1800s; "
               + "; ".join(details))


class TestLearnedPolicyAdvantage:
    def test_criterion(self, held_out_rows):
        perf_full = H.mean_perf(held_out_rows["full"])
        perf_rand = H.mean_perf(held_out_rows["random_all"])
        perf_notr = H.mean_perf(held_out_rows["no_transfer"])
        pairs_full = np.array([r.perf for r in held_out_rows["full"]])
        pairs_rand = np.array([r.perf for r in held_out_rows["random_all"]])
        _, p = wilcoxon_signed_rank(pairs_full, pairs_rand)
        ok = perf_full < perf_rand and perf_full < perf_notr and p < 0.05
        report("learned-policy-advantage", ok,
               f"perf {perf_full:.4f} vs random_all {perf_rand:.4f} "
               f"(p={p:.4g}) and no_transfer {perf_notr:.4f}, "
               f"{len(pairs_full)} paired runs")


class TestTransferQuality:
    def test_criterion(self, held_out_rows):
        kt_full = np.mean([r.kt_success_ratio
                           for r in held_out_rows["full"]])
        kt_rand = np.mean([r.kt_success_ratio
                           for r in held_out_rows["random_all"]])
        margin = kt_full - kt_rand
        report("transfer-quality", margin >= 0.05,
               f"kt ratio {kt_full:.3f} vs {kt_rand:.3f}, margin {margin:.3f}")


def make_duplicate_pair_instance(dup, other, level, key, dim=DIM):
    """K=5 routing probe: tasks 0 and 1 share one base function, shift,
    and rotation; tasks 2-4 use a different function with fresh
    transformations."""
    rng = derive_rng(key, "pair", dup.key, other.key)
    lb, ub = B.SEARCH_BOUNDS[dup]
    rot = B.make_rotation(dim, rng)
    shift = B.make_shift(level, lb, ub, dim, rng)
    subs = [B.SubTaskDefinition(dup, dim, rot.copy(), shift.copy(), lb, ub),
            B.SubTaskDefinition(dup, dim, rot.copy(), shift.copy(), lb, ub)]
    lb2, ub2 = B.SEARCH_BOUNDS[other]
    for _ in range(3):
        subs.append(B.SubTaskDefinition(
            other, dim, B.make_rotation(dim, rng),
            B.make_shift(level, lb2, ub2, dim, rng), lb2, ub2))
    return B.MTOInstance(f"pair-{dup.key}-{other.key}", level, (dup, other),
                         subs)


def small_combination_instances(level, seed, n_tasks, dim, count, max_size=2):
    """Training subset restricted to 1- and 2-function combinations: these
    instances are dense in same-function task pairs, the contrast the
    routing head needs to learn similarity from at desk scale."""
    combos = [c for c in B.enumerate_combinations() if len(c) <= max_size]
    rng = derive_rng(seed, "small-combos")
    picks = sorted(rng.choice(len(combos), size=count, replace=False).tolist())
    return [B._build_instance(combos[i], level, n_tasks, dim, rng,
                              f"sc-{i:03d}") for i in picks]


class TestRoutingSanity:
    def test_criterion(self, tmp_path):
        """Analogue of the known-similar-pair heatmap study.

        Like the paper's analysis, this uses a model trained specifically
        for the routing study: the desk-scale budget is too small for the
        uniformly sampled training subset to teach similarity recognition
        (its instances rarely contain same-function pairs), so the study
        model trains on the 1- and 2-function combinations for 6 epochs.
        The probe pairs duplicate multimodal tasks against distractors of
        a structurally different base function.
        """
        train = small_combination_instances(LEVEL, 101, N_TASKS, DIM,
                                            N_TRAIN_INSTANCES)
        result = ppo.train(train, ppo.PPOConfig(epochs=6, budget=BUDGET),
                           seed=1, pop_size=POP_SIZE, out_dir=str(tmp_path))
        instance = make_duplicate_pair_instance(
            B.BasicFunction.RASTRIGIN, B.BasicFunction.WEIERSTRASS, LEVEL,
            key=EVAL_SEED)
        controller = H.Controller(result.params, "full")
        fractions = []
        for run in range(5):
            ep = H.run_episode(instance, controller,
                               derive_seed(EVAL_SEED, "routing", run),
                               POP_SIZE, BUDGET)
            # go through the export interface: write, re-read, then judge
            path = tmp_path / f"attention_{run}.csv"
            H.write_attention_csv(ep.attention, str(path))
            scores = {}
            with open(path) as fh:
                next(fh)
                for line in fh:
                    gen, tgt, src, value = line.split(",")
                    scores.setdefault(int(gen), np.full((N_TASKS, N_TASKS),
                                                        -np.inf))
                    scores[int(gen)][int(tgt), int(src)] = float(value)
            hits = [int(np.argmax(s[0]) == 1 and np.argmax(s[1]) == 0)
                    for _, s in sorted(scores.items())]
            fractions.append(np.mean(hits))
        mean_fraction = float(np.mean(fractions))
        report("routing-sanity", mean_fraction >= 0.60,
               f"mutual argmax fraction {mean_fraction:.3f} over 5 runs "
               f"(per-run {np.round(fractions, 2)})")


class TestVariableK:
    @pytest.mark.parametrize("k", [10, 3])
    def test_criterion(self, desk_policy, k):
        instance = B.sample_instances(LEVEL, seed=404 + k, n_tasks=k, dim=DIM,
                                      count=1)[0]
        controller = H.Controller(desk_policy, "full")
        state = E.init_populations(instance, POP_SIZE, seed=404, budget=20)
        for _ in range(20):
            feats = E.extract_state(state)
            bundle, _ = controller.act(feats, derive_rng(404, "ablation"))
            assert (bundle.a1 != np.arange(k)).all()
            assert (bundle.a1 >= 0).all() and (bundle.a1 < k).all()
            assert (bundle.a2 >= 0).all() and (bundle.a2 <= 0.5).all()
            assert set(bundle.a31) <= {1, 2, 3, 4}
            assert (bundle.a32 >= 0).all() and (bundle.a32 <= 1).all()
            assert (bundle.a33 >= 0).all() and (bundle.a33 <= 1).all()
            E.emt_step(state, bundle)
        report(f"variable-K (K={k})", True,
               "policy trained at K=5 runs with bounds-respecting actions")


class TestAblationHarness:
    def test_criterion(self, desk_policy):
        instance = B.sample_instances(LEVEL, seed=71, n_tasks=N_TASKS, dim=DIM,
                                      count=1)[0]
        feats = random_features(N_TASKS, 71)
        full = P.act_with_context(desk_policy, feats, None)[0]
        action_fields = ("a1", "a2", "a31", "a32", "a33")
        substituted = {"no_tr": "a1", "no_kc": "a2", "no_op": "a31",
                       "no_f": "a32", "no_cr": "a33"}
        for variant, changed in substituted.items():
            controller = H.Controller(desk_policy, variant)
            bundle, _ = controller.act(feats, derive_rng(71, variant))
            if variant == "no_tr":
                # downstream heads must equal the full policy conditioned
                # on the substituted routing
                assert (bundle.a1 != np.arange(N_TASKS)).all()
                ref = P.act_with_context(desk_policy, feats, forced_a1=bundle.a1)[0]
            else:
                ref = full
            for name in action_fields:
                if name == changed:
                    assert not np.array_equal(getattr(bundle, name),
                                              getattr(full, name)), \
                        f"{variant}: {name} was not substituted"
                else:
                    np.testing.assert_array_equal(
                        getattr(bundle, name), getattr(ref, name),
                        err_msg=f"{variant} changed {name}")
            if variant in ("no_f", "no_cr"):
                np.testing.assert_array_equal(getattr(bundle, changed), 0.5)
            # end-to-end run of the variant
            ep = H.run_episode(instance, controller,
                               derive_seed(71, variant), POP_SIZE, 10)
            assert ep.best_trace.shape == (11, N_TASKS)
        report("ablation-harness", True,
               "five variants run end-to-end; action-trace diffs isolate "
               "the substituted component")
