"""Transfer engine: state features, offspring generation, selection,
reward, and the no-transfer reduction to independent per-task DE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emtlab import benchmarks as B
from emtlab import engine as E
from emtlab.policy import ActionBundle
from emtlab.seeds import derive_rng, derive_seed


def tiny_instance(n_tasks=2, dim=3, seed=0, level=0.1,
                  fid=B.BasicFunction.SPHERE):
    rng = derive_rng(seed, "inst")
    lb, ub = B.SEARCH_BOUNDS[fid]
    subs = [B.SubTaskDefinition(fid, dim, B.make_rotation(dim, rng),
                                B.make_shift(level, lb, ub, dim, rng), lb, ub)
            for _ in range(n_tasks)]
    return B.MTOInstance(f"tiny-{seed}", level, (fid,), subs)


def bundle_for(state, a1=None, a2=0.0, op=1, f=0.5, cr=0.7):
    k = state.n_tasks
    if a1 is None:
        a1 = (np.arange(k) + 1) % k
    return ActionBundle(np.asarray(a1), np.full(k, float(a2)),
                        np.full(k, op, dtype=int), np.full(k, float(f)),
                        np.full(k, float(cr)), 0.0, {})


class TestInit:
    def test_populations_evaluated(self):
        state = E.init_populations(tiny_instance(3, 4), 50, seed=1, budget=10)
        assert state.evaluations == 3 * 50
        for j, pop in enumerate(state.populations):
            assert pop.positions.shape == (50, 4)
            expected = B.evaluate_subtask_batch(state.instance.sub_tasks[j],
                                                pop.positions)
            np.testing.assert_array_equal(pop.fitness, expected)
            assert state.f0[j] == pop.fitness.min()
            assert state.fmax0[j] == pop.fitness.max()
            assert pop.best_value == pop.fitness.min()

    def test_same_seed_identical(self):
        a = E.init_populations(tiny_instance(), 8, seed=3, budget=10)
        b = E.init_populations(tiny_instance(), 8, seed=3, budget=10)
        for pa, pb in zip(a.populations, b.populations):
            np.testing.assert_array_equal(pa.positions, pb.positions)

    def test_small_population_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            E.init_populations(tiny_instance(), 3, seed=0, budget=10)


class TestFeatures:
    def test_identical_individuals_zero_spread(self):
        state = E.init_populations(tiny_instance(2, 3), 6, seed=2, budget=10)
        for pop in state.populations:
            pop.positions[:] = pop.positions[0]
            pop.fitness[:] = pop.fitness[0]
        feats = E.extract_state(state)
        np.testing.assert_allclose(feats[:, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(feats[:, 1], 0.0, atol=1e-15)

    def test_initial_state_features(self):
        state = E.init_populations(tiny_instance(2, 3), 6, seed=2, budget=10)
        feats = E.extract_state(state)
        np.testing.assert_array_equal(feats[:, 2], 0.0)  # no stagnation yet
        np.testing.assert_array_equal(feats[:, 3], 0.0)  # no update yet
        np.testing.assert_array_equal(feats[:, 4], 0.0)  # no transfer history

    def test_two_point_population_spread(self):
        state = E.init_populations(tiny_instance(2, 4), 4, seed=2, budget=10)
        pop = state.populations[0]
        pop.positions[:] = 0.0
        pop.positions[:2] = 0.0
        pop.positions[2:] = 1.0
        # two individuals at 0 and two at 1 in every dimension: std = 0.5
        feats = E.extract_state(state)
        assert feats[0, 0] == pytest.approx(0.5)

    def test_ranges_over_random_run(self):
        state = E.init_populations(tiny_instance(3, 4), 10, seed=5, budget=20)
        rng = derive_rng(0, "act")
        for t in range(20):
            a1 = np.array([(j + 1 + rng.integers(2)) % 3 for j in range(3)])
            a1 = np.where(a1 == np.arange(3), (a1 + 1) % 3, a1)
            action = bundle_for(state, a1, a2=rng.uniform(0, 0.5),
                                op=int(rng.integers(1, 5)),
                                f=rng.random(), cr=rng.random())
            E.emt_step(state, action)
            feats = E.extract_state(state)
            assert np.isfinite(feats).all()
            assert (feats >= 0.0).all() and (feats <= 1.0).all()
            assert set(np.unique(feats[:, 3])) <= {0.0, 1.0}


class TestSelfEvolve:
    def test_zero_difference_vector_keeps_base(self):
        state = E.init_populations(tiny_instance(2, 3), 5, seed=7, budget=10)
        pop = state.populations[0]
        pop.positions[:] = 0.25  # identical population: x_r1 + F(x_r2-x_r3) = x_r1
        off = E.self_evolve(pop, derive_rng(1, "se"), np.arange(5))
        np.testing.assert_allclose(off, 0.25)

    def test_cr_one_gives_pure_mutant(self):
        state = E.init_populations(tiny_instance(2, 6), 6, seed=8, budget=10)
        pop = state.populations[0]
        rng_a = derive_rng(2, "se")
        rng_b = derive_rng(2, "se")
        off = E.self_evolve(pop, rng_a, np.arange(6), cr=1.0)
        # replicate the mutants with the documented draw order
        n, d = pop.positions.shape
        mutants = np.empty((6, d))
        for i in range(6):
            pool = np.concatenate([np.arange(i), np.arange(i + 1, n)])
            r1, r2, r3 = rng_b.choice(pool, size=3, replace=False)
            mutants[i] = pop.positions[r1] + 0.5 * (pop.positions[r2]
                                                    - pop.positions[r3])
        np.testing.assert_array_equal(off, np.clip(mutants, 0.0, 1.0))

    def test_offspring_inside_unit_box(self):
        state = E.init_populations(tiny_instance(2, 5), 12, seed=9, budget=10)
        for _ in range(10):
            off = E.self_evolve(state.populations[0], derive_rng(3, "se"),
                                np.arange(12))
            assert (off >= 0.0).all() and (off <= 1.0).all()


class TestTransferEvolve:
    @staticmethod
    def _two_pops(seed=11, n=10, d=4):
        state = E.init_populations(tiny_instance(2, d), n, seed=seed, budget=10)
        return state.populations[0], state.populations[1]

    def test_transfer_count_rounding(self):
        target, source = self._two_pops(n=50)
        off, hosts = E.transfer_evolve(target, source, 0.2, 1, 0.5, 0.7,
                                       derive_rng(4, "t"))
        assert len(off) == 10 and len(hosts) == 10
        off, hosts = E.transfer_evolve(target, source, 0.25, 1, 0.5, 0.7,
                                       derive_rng(4, "t"))
        assert len(off) == 13  # round half up: 12.5 -> 13

    def test_zero_proportion_no_output_no_draws(self):
        target, source = self._two_pops()
        rng = derive_rng(5, "t")
        state_before = rng.bit_generator.state
        off, hosts = E.transfer_evolve(target, source, 0.0, 2, 0.5, 0.7, rng)
        assert off.shape == (0, 4) and len(hosts) == 0
        assert rng.bit_generator.state == state_before

    def test_operator_one_formula(self):
        # Cr = 1 makes every trial the raw mutant, so a replay of the
        # documented draw order checks the operator formula row by row
        target, source = self._two_pops(n=12)
        off, hosts = E.transfer_evolve(target, source, 0.5, 1, 0.3, 1.0,
                                       derive_rng(6, "t"))
        m = len(hosts)
        assert m == 6
        replay = derive_rng(6, "t")
        np.testing.assert_array_equal(hosts, replay.choice(12, size=m, replace=False))
        elites = np.argsort(source.fitness, kind="stable")[:m]
        tgt_best = target.positions[np.argmin(target.fitness)]
        mutants = np.empty((m, 4))
        for i in range(m):
            r1, r2 = replay.choice(elites, size=2, replace=False)
            assert r1 != r2
            mutants[i] = tgt_best + 0.3 * (source.positions[r1]
                                           - source.positions[r2])
        np.testing.assert_allclose(off, np.clip(mutants, 0, 1))

    def test_operator_three_f_zero_injects_source(self):
        target, source = self._two_pops(n=10)
        off, hosts = E.transfer_evolve(target, source, 0.3, 3, 0.0, 1.0,
                                       derive_rng(7, "t"))
        # with F=0 and Cr=1 every offspring is an elite source individual
        elite_rows = source.positions[np.argsort(source.fitness, kind="stable")[:3]]
        for row in off:
            assert any(np.allclose(row, np.clip(e, 0, 1)) for e in elite_rows)

    def test_single_elite_degenerates_gracefully(self):
        target, source = self._two_pops(n=10)
        for op in (1, 2, 3, 4):
            off, hosts = E.transfer_evolve(target, source, 0.1, op, 0.5, 0.7,
                                           derive_rng(op, "t1"))
            assert off.shape == (1, 4)
            assert (off >= 0).all() and (off <= 1).all()

    def test_unknown_operator(self):
        target, source = self._two_pops()
        with pytest.raises(ValueError, match="operator"):
            E.transfer_evolve(target, source, 0.2, 5, 0.5, 0.7, derive_rng(0, "t"))


class TestGreedySelect:
    @staticmethod
    def _pop():
        positions = np.linspace(0.1, 0.9, 12).reshape(4, 3)
        fitness = np.array([4.0, 2.0, 3.0, 1.0])
        return E.Population(positions.copy(), fitness.copy(), 1.0)

    def test_all_worse_keeps_population_and_stagnates(self):
        pop = self._pop()
        before = pop.positions.copy()
        n = E.greedy_select(pop, before + 0.01, pop.fitness + 1.0,
                            np.zeros(4, dtype=bool))
        assert n == 0
        np.testing.assert_array_equal(pop.positions, before)
        assert pop.stagnation == 1 and not pop.improved_last

    def test_equal_fitness_offspring_survives(self):
        pop = self._pop()
        offspring = pop.positions + 0.05
        E.greedy_select(pop, offspring, pop.fitness.copy(),
                        np.zeros(4, dtype=bool))
        np.testing.assert_array_equal(pop.positions, offspring)
        assert pop.stagnation == 1  # ties do not improve the best

    def test_success_counting(self):
        pop = self._pop()
        offspring = pop.positions * 0.5
        fitness = np.array([3.0, 5.0, 2.0, 0.5])  # survive: 0, 2, 3
        mask = np.array([True, True, True, False])
        n = E.greedy_select(pop, offspring, fitness, mask)
        assert n == 2  # transfer offspring 0 and 2 survive, 1 fails
        assert pop.best_value == 0.5 and pop.improved_last


class TestReward:
    def test_no_change_no_transfer_is_zero(self):
        r, rc, rk = E.compute_reward(np.array([5.0, 3.0]), np.array([5.0, 3.0]),
                                     np.array([5.0, 3.0]), np.zeros(2, int),
                                     np.zeros(2, int))
        assert r == 0.0

    def test_full_range_improvement_is_one(self):
        r, rc, rk = E.compute_reward(np.array([5.0]), np.array([0.0]),
                                     np.array([5.0]), np.zeros(1, int),
                                     np.zeros(1, int))
        assert rc[0] == pytest.approx(1.0)

    def test_survival_ratio(self):
        r, rc, rk = E.compute_reward(np.array([5.0]), np.array([5.0]),
                                     np.array([5.0]), np.array([10]),
                                     np.array([5]))
        assert r == pytest.approx(0.5) and rk[0] == pytest.approx(0.5)

    def test_degenerate_normalizer_guard(self):
        r, rc, rk = E.compute_reward(np.array([0.0]), np.array([0.0]),
                                     np.array([0.0]), np.zeros(1, int),
                                     np.zeros(1, int))
        assert r == 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_component_bounds(self, seed):
        # with f* = 0 a true lower bound, f0 the initial best, and
        # best-so-far monotone, R_c <= 1 per task and R_k in [0, 1]
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        f0 = rng.uniform(0.1, 50, size=k)
        before = f0 * rng.uniform(0, 1, size=k)
        after = before * rng.uniform(0, 1, size=k)
        transfer = rng.integers(0, 10, size=k)
        success = (transfer * rng.random(k)).astype(int)
        _, rc, rk = E.compute_reward(before, after, f0, transfer, success)
        assert (rc <= 1.0 + 1e-12).all() and (rc >= 0.0).all()
        assert (rk >= 0.0).all() and (rk <= 1.0).all()


class TestStep:
    def test_self_source_rejected(self):
        state = E.init_populations(tiny_instance(3, 3), 6, seed=1, budget=10)
        with pytest.raises(ValueError, match="source"):
            E.emt_step(state, bundle_for(state, a1=[0, 0, 1]))

    def test_wrong_task_count_rejected(self):
        state = E.init_populations(tiny_instance(3, 3), 6, seed=1, budget=10)
        with pytest.raises(ValueError, match="number of tasks"):
            E.emt_step(state, bundle_for(state, a1=[1, 0]))

    def test_budget_accounting(self):
        state = E.init_populations(tiny_instance(3, 4), 9, seed=2, budget=10)
        after_init = state.evaluations
        for _ in range(10):
            E.emt_step(state, bundle_for(state, a2=0.3))
        assert state.evaluations - after_init == 3 * 9 * 10

    def test_best_monotone_non_increasing(self):
        state = E.init_populations(tiny_instance(3, 5,
                                                 fid=B.BasicFunction.RASTRIGIN),
                                   10, seed=3, budget=30)
        prev = state.best_values()
        for t in range(30):
            E.emt_step(state, bundle_for(state, a2=0.2, op=1 + t % 4))
            cur = state.best_values()
            assert (cur <= prev + 1e-15).all()
            prev = cur

    def test_ledger_counts_and_bounds(self):
        state = E.init_populations(tiny_instance(2, 4), 10, seed=4, budget=10)
        for _ in range(10):
            _, info = E.emt_step(state, bundle_for(state, a2=0.5))
            assert (info["n_success"] <= info["n_transfer"]).all()
            assert (info["n_transfer"] == 5).all()

    def test_reward_matches_recomputation(self):
        state = E.init_populations(tiny_instance(2, 4), 8, seed=5, budget=10)
        before = state.best_values()
        reward, info = E.emt_step(state, bundle_for(state, a2=0.25, op=2))
        expected, _, _ = E.compute_reward(before, state.best_values(), state.f0,
                                          info["n_transfer"], info["n_success"])
        assert reward == pytest.approx(expected)


def reference_de_run(defn, rng, n, generations, f=0.5, cr=0.7):
    """Independently coded single-task DE/rand/1/bin with greedy selection,
    following the engine's documented per-task stream protocol.  Returns
    (positions, fitness, best-so-far trace including the initial value)."""
    positions = rng.random((n, defn.dim))
    fitness = B.evaluate_subtask_batch(defn, positions)
    best_trace = [fitness.min()]
    for _ in range(generations):
        mutants = np.empty_like(positions)
        for i in range(n):
            pool = np.concatenate([np.arange(i), np.arange(i + 1, n)])
            r1, r2, r3 = rng.choice(pool, size=3, replace=False)
            mutants[i] = positions[r1] + f * (positions[r2] - positions[r3])
        mask = rng.random((n, defn.dim)) < cr
        j_rand = rng.integers(0, defn.dim, size=n)
        mask[np.arange(n), j_rand] = True
        trials = np.clip(np.where(mask, mutants, positions), 0.0, 1.0)
        trial_fit = B.evaluate_subtask_batch(defn, trials)
        accept = trial_fit <= fitness
        positions[accept] = trials[accept]
        fitness[accept] = trial_fit[accept]
        best_trace.append(fitness.min())
    return positions, fitness, np.minimum.accumulate(best_trace)


class TestIndependentDEEquivalence:
    def test_zero_transfer_matches_reference(self):
        """With a2 = 0 the engine is bit-identical to an independently
        coded per-task DE/rand/1/bin under the shared seed schedule."""
        instance = tiny_instance(2, 3, seed=21, fid=B.BasicFunction.ACKLEY)
        seed = derive_seed(99, "oracle")
        state = E.init_populations(instance, 6, seed=seed, budget=10)
        for _ in range(10):
            E.emt_step(state, bundle_for(state, a2=0.0))
        for j, defn in enumerate(instance.sub_tasks):
            # the reference consumes the same per-task stream key
            positions, fitness, _ = reference_de_run(
                defn, derive_rng(seed, "task", j), 6, 10)
            np.testing.assert_array_equal(state.populations[j].positions,
                                          positions)
            np.testing.assert_array_equal(state.populations[j].fitness, fitness)
