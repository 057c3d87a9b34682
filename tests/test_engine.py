"""Transfer engine: state features, offspring generation, selection,
reward, the no-transfer reduction to independent per-task DE, and the
three-phase generation against a sequential per-task reference."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def population(positions, fitness):
    """Task 0 of a one-task state over the given rows."""
    return E.EMTState(None, positions[None].copy(), fitness[None].copy(),
                      10, []).populations[0]


def draw_self(rng, rows, n, d):
    """Partner draws and the finished crossover mask of `rows` parents,
    from _draw_self's raw draws as emt_step finishes them."""
    partners, u, j_rand = E._draw_self(rng, rows, n, d)
    mask = u < E.SELF_CR
    mask[np.arange(rows), j_rand] = True
    return partners, mask


def replay_self(x, parents, rng, f=E.SELF_F, cr=E.SELF_CR):
    """Self-evolution reference: each parent's partners are drawn with one
    rng.choice from the population with the parent deleted, then
    crossover as documented."""
    n, d = x.shape
    everyone = np.arange(n)
    r = np.array([rng.choice(np.delete(everyone, p), size=3, replace=False)
                  for p in parents], dtype=int).reshape(-1, 3)
    mutants = x[r[:, 0]] + f * (x[r[:, 1]] - x[r[:, 2]])
    m = len(parents)
    mask = rng.random(mutants.shape) < cr
    mask[np.arange(m), rng.integers(0, d, size=m)] = True
    return np.clip(np.where(mask, mutants, x[parents]), 0.0, 1.0)


def replay_mutants(op_id, tgt, tgt_fit, src, src_fit, elites, f, replay):
    """Transfer mutants from one rng.choice per pool and offspring: the
    random base index (operators 2 and 3), then the difference pair."""
    def pick(pool, count):
        return replay.choice(pool, size=count, replace=len(pool) < count)

    everyone = np.arange(len(tgt))
    mutants = np.empty((len(elites), tgt.shape[1]))
    for i in range(len(elites)):
        if op_id == 1:
            r1, r2 = pick(elites, 2)
            mutants[i] = tgt[np.argmin(tgt_fit)] + f * (src[r1] - src[r2])
        elif op_id == 2:
            t1, = pick(everyone, 1)
            r2, r3 = pick(elites, 2)
            mutants[i] = tgt[t1] + f * (src[r2] - src[r3])
        elif op_id == 3:
            r1, = pick(elites, 1)
            t2, t3 = pick(everyone, 2)
            mutants[i] = src[r1] + f * (tgt[t2] - tgt[t3])
        else:
            t1, t2 = pick(everyone, 2)
            mutants[i] = src[np.argmin(src_fit)] + f * (tgt[t1] - tgt[t2])
    return mutants


def snapshot(state):
    """Copies of everything a generation changes."""
    return {"positions": state.positions.copy(),
            "fitness": state.fitness.copy(),
            "best": state.best.tolist(),
            "stagnation": state.stagnation.tolist(),
            "improved": state.improved.tolist(),
            "evaluations": state.evaluations,
            "n_transfer": state.n_transfer.tolist(),
            "n_success": state.n_success.tolist(),
            "streams": [rng.bit_generator.state for rng in state.task_rngs]}


def assert_same_state(actual, expected):
    """Bit equality of two snapshots."""
    assert actual.keys() == expected.keys()
    for key in ("positions", "fitness"):
        assert actual[key].tobytes() == expected[key].tobytes(), key
    for key in ("best", "stagnation", "improved", "evaluations", "n_transfer",
                "n_success", "streams"):
        assert actual[key] == expected[key], key


def bundle_for(state, a1=None, a2=0.0, op=1, f=0.5, cr=0.7):
    k = state.n_tasks
    if a1 is None:
        a1 = (np.arange(k) + 1) % k
    return ActionBundle(np.asarray(a1), np.full(k, float(a2)),
                        np.full(k, op, dtype=int), np.full(k, float(f)),
                        np.full(k, float(cr)))


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
        partners, mask = draw_self(derive_rng(1, "se"), 5, 5, 3)
        off = E.self_evolve(state.positions, partners, np.arange(5), mask)
        np.testing.assert_allclose(off, 0.25)

    def test_cr_one_gives_pure_mutant(self):
        # task 1's parents are rows 6..11 of the stacked populations; an
        # all-true crossover mask is Cr = 1
        state = E.init_populations(tiny_instance(2, 6), 6, seed=8, budget=10)
        pop = state.populations[1]
        rng_b = derive_rng(2, "se")
        partners, _ = draw_self(derive_rng(2, "se"), 6, 6, 6)
        off = E.self_evolve(state.positions, partners, 6 + np.arange(6),
                            np.ones((6, 6), dtype=bool))
        # replicate the mutants with the documented draw order
        n, d = pop.positions.shape
        mutants = np.empty((6, d))
        for i in range(6):
            pool = np.concatenate([np.arange(i), np.arange(i + 1, n)])
            r1, r2, r3 = rng_b.choice(pool, size=3, replace=False)
            mutants[i] = pop.positions[r1] + 0.5 * (pop.positions[r2]
                                                    - pop.positions[r3])
        np.testing.assert_array_equal(off, np.clip(mutants, 0.0, 1.0))

    @pytest.mark.parametrize("parents", [[], np.empty(0, dtype=int)])
    def test_empty_parent_set(self, parents):
        # every parent hosts a transfer offspring when m_kt = N
        state = E.init_populations(tiny_instance(2, 3), 5, seed=7, budget=10)
        rng = derive_rng(1, "se")
        before = rng.bit_generator.state
        partners, mask = draw_self(rng, len(parents), 5, 3)
        off = E.self_evolve(state.positions, partners, parents, mask)
        assert off.shape == (0, 3)
        assert rng.bit_generator.state == before

    @given(st.integers(4, 60), st.floats(0.0, 1.0), st.integers(0, 2 ** 20))
    @example(4, 0.0, 0)
    @example(60, 1.0, 0)
    @settings(max_examples=40, deadline=None)
    def test_partner_positions_replay_delete_and_choose(self, n, share, seed):
        # reference: each parent's partners are drawn from the population
        # with the parent deleted, then crossover as documented; the
        # population is task 1 of two, so its rows start at n
        rng = derive_rng(seed, "replay")
        x = rng.random((n, 3))
        positions = np.stack([rng.random((n, 3)), x])
        parents = np.sort(rng.choice(n, size=round(share * n), replace=False))
        replay = derive_rng(seed, "replay", "stream")
        expected = replay_self(x, parents, replay)
        stream = derive_rng(seed, "replay", "stream")
        partners, mask = draw_self(stream, len(parents), n, 3)
        assert stream.bit_generator.state == replay.bit_generator.state
        np.testing.assert_array_equal(
            E.self_evolve(positions, partners, n + parents, mask), expected)

    def test_offspring_inside_unit_box(self):
        state = E.init_populations(tiny_instance(2, 5), 12, seed=9, budget=10)
        for _ in range(10):
            partners, mask = draw_self(derive_rng(3, "se"), 12, 12, 5)
            off = E.self_evolve(state.positions, partners, np.arange(12), mask)
            assert (off >= 0.0).all() and (off <= 1.0).all()


class TestPickRows:
    # 2**31 + 1 and 3 * 2**30 make numpy's bounded draw reject about half
    # and a quarter of all raw 32-bit words, so rejections are replayed too
    POOLS = st.one_of(st.integers(1, 60), st.sampled_from([2 ** 31 + 1, 3 * 2 ** 30]))

    @given(st.lists(st.tuples(POOLS, st.integers(1, 3)), min_size=1, max_size=2),
           st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
    @example([(1, 1)], 5, 0)
    @example([(1, 2), (2, 3)], 5, 0)
    @example([(2 ** 31 + 1, 3)], 60, 0)
    @example([(3 * 2 ** 30, 1), (3 * 2 ** 30, 2)], 60, 1)
    @settings(max_examples=200, deadline=None)
    def test_equals_successive_choice_calls(self, segments, rows, seed):
        rng = derive_rng(seed, "pick")
        picks = E._fix_rows(E._draw_rows(rng, rows, segments), segments)
        replay = derive_rng(seed, "pick")
        for (pool, count), pick in zip(segments, picks):
            assert pick.shape == (rows, count)
        for i in range(rows):
            for (pool, count), pick in zip(segments, picks):
                np.testing.assert_array_equal(
                    pick[i], replay.choice(pool, size=count, replace=pool < count))
        assert rng.bit_generator.state == replay.bit_generator.state


class TestTransferEvolve:
    @staticmethod
    def _two_pops(seed=11, n=10, d=4):
        state = E.init_populations(tiny_instance(2, d), n, seed=seed, budget=10)
        return state.populations[0], state.populations[1]

    @staticmethod
    def _transfer(target, source, a2, op_id, f, cr, rng):
        """The transfer draws of one task, then its offspring."""
        n, d = target.positions.shape
        hosts, picks, u, j_rand = E._draw_transfer(rng, n, d, int(a2 * n + 0.5), op_id)
        mask = u < cr
        mask[np.arange(len(hosts)), j_rand] = True
        return E.transfer_evolve(target, source, op_id, f, hosts, picks, mask)

    def test_transfer_count_rounding(self):
        # emt_step rounds m_kt = a2 * N half up: 0.2 * 50 -> 10, 12.5 -> 13
        for a2, m_kt in ((0.2, 10), (0.25, 13)):
            state = E.init_populations(tiny_instance(2, 4), 50, seed=11, budget=10)
            E.emt_step(state, bundle_for(state, a2=a2))
            assert (state.n_transfer == m_kt).all()

    def test_zero_proportion_no_output_no_draws(self):
        target, source = self._two_pops()
        rng = derive_rng(5, "t")
        state_before = rng.bit_generator.state
        off, hosts = self._transfer(target, source, 0.0, 2, 0.5, 0.7, rng)
        assert off.shape == (0, 4) and len(hosts) == 0
        assert rng.bit_generator.state == state_before

    def test_operator_one_formula(self):
        # Cr = 1 makes every trial the raw mutant, so a replay of the
        # documented draw order checks the operator formula row by row
        target, source = self._two_pops(n=12)
        off, hosts = self._transfer(target, source, 0.5, 1, 0.3, 1.0,
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

    @pytest.mark.parametrize("op_id", [1, 2, 3, 4])
    def test_each_operator_replays_documented_draws(self, op_id):
        # per offspring: the random base index (operators 2 and 3), then
        # the difference pair; Cr = 1 makes every trial the raw mutant.
        # m_kt = 1 leaves one elite, and draws from it consume nothing.
        for m_kt in (1, 6, 12):
            target, source = self._two_pops(n=12)
            rng = derive_rng(6, "t")
            off, hosts = self._transfer(target, source, m_kt / 12, op_id,
                                        0.3, 1.0, rng)
            assert len(hosts) == m_kt
            replay = derive_rng(6, "t")
            np.testing.assert_array_equal(hosts, replay.choice(12, size=m_kt,
                                                               replace=False))
            elites = np.argsort(source.fitness, kind="stable")[:m_kt]
            mutants = replay_mutants(op_id, target.positions, target.fitness,
                                     source.positions, source.fitness, elites,
                                     0.3, replay)
            np.testing.assert_array_equal(off, np.clip(mutants, 0.0, 1.0))
            replay.random((m_kt, 4))                  # crossover mask
            replay.integers(0, 4, size=m_kt)          # j_rand
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_operator_three_f_zero_injects_source(self):
        target, source = self._two_pops(n=10)
        off, hosts = self._transfer(target, source, 0.3, 3, 0.0, 1.0,
                                    derive_rng(7, "t"))
        # with F=0 and Cr=1 every offspring is an elite source individual
        elite_rows = source.positions[np.argsort(source.fitness, kind="stable")[:3]]
        for row in off:
            assert any(np.allclose(row, np.clip(e, 0, 1)) for e in elite_rows)

    def test_single_elite_degenerates_gracefully(self):
        target, source = self._two_pops(n=10)
        for op in (1, 2, 3, 4):
            off, hosts = self._transfer(target, source, 0.1, op, 0.5, 0.7,
                                        derive_rng(op, "t1"))
            assert off.shape == (1, 4)
            assert (off >= 0).all() and (off <= 1).all()

    def test_unknown_operator(self):
        state = E.init_populations(tiny_instance(2, 4), 10, seed=11, budget=10)
        with pytest.raises(ValueError, match="operator id"):
            E.emt_step(state, bundle_for(state, a2=0.2, op=5))


class TestGreedySelect:
    @staticmethod
    def _pop():
        positions = np.linspace(0.1, 0.9, 12).reshape(4, 3)
        fitness = np.array([4.0, 2.0, 3.0, 1.0])
        pop = population(positions, fitness)
        assert pop.best_value == 1.0
        return pop

    def test_all_worse_keeps_population(self):
        pop = self._pop()
        before = pop.positions.copy()
        n = E.greedy_select(pop, before + 0.01, pop.fitness + 1.0,
                            np.zeros(4, dtype=bool))
        assert n == 0
        np.testing.assert_array_equal(pop.positions, before)
        np.testing.assert_array_equal(pop.fitness, [4.0, 2.0, 3.0, 1.0])

    def test_equal_fitness_offspring_survives(self):
        pop = self._pop()
        offspring = pop.positions + 0.05
        E.greedy_select(pop, offspring, pop.fitness.copy(),
                        np.zeros(4, dtype=bool))
        np.testing.assert_array_equal(pop.positions, offspring)
        np.testing.assert_array_equal(pop.fitness, [4.0, 2.0, 3.0, 1.0])

    def test_success_counting(self):
        pop = self._pop()
        offspring = pop.positions * 0.5
        fitness = np.array([3.0, 5.0, 2.0, 0.5])  # survive: 0, 2, 3
        mask = np.array([True, True, True, False])
        before = pop.positions.copy()
        n = E.greedy_select(pop, offspring, fitness, mask)
        assert n == 2  # transfer offspring 0 and 2 survive, 1 fails
        np.testing.assert_array_equal(pop.positions[[0, 2, 3]], offspring[[0, 2, 3]])
        np.testing.assert_array_equal(pop.positions[1], before[1])
        np.testing.assert_array_equal(pop.fitness, [3.0, 2.0, 2.0, 0.5])
        assert pop.best_value == 1.0  # selection leaves the status to emt_step


class TestStatus:
    """emt_step updates best-so-far, stagnation and the improvement flag of
    every task after selection; a2 = 0, so each task breeds only from its
    own rows."""

    @staticmethod
    def _step(task, fitness):
        """One generation after setting the fitness of `task`'s rows to
        fitness(state) and its best-so-far to their minimum."""
        state = E.init_populations(tiny_instance(3, 3), 6, seed=1, budget=10)
        state.fitness[task] = fitness(state)
        state.best[task] = state.fitness[task].min()
        positions = state.positions[task].copy()
        E.emt_step(state, bundle_for(state))
        return state, positions

    def test_no_improvement_stagnates(self):
        # sphere fitness is >= 0, so no offspring beats -1
        state, before = self._step(1, lambda state: -1.0)
        np.testing.assert_array_equal(state.positions[1], before)
        assert state.best[1] == -1.0 == state.populations[1].best_value
        assert state.stagnation[1] == 1 and not state.improved[1]

    def test_tie_does_not_improve_the_best(self):
        # identical rows: every offspring equals its parent and ties it
        def identical(state):
            state.positions[0] = state.positions[0, 0]
            return B.evaluate_subtask_batch(state.instance.sub_tasks[0],
                                            state.positions[0])
        state, before = self._step(0, identical)
        np.testing.assert_array_equal(state.positions[0], before)
        assert state.best[0] == state.fitness[0].min()
        assert state.stagnation[0] == 1 and not state.improved[0]

    def test_improvement_sets_best_and_flag(self):
        # every offspring beats 1e9
        state, _ = self._step(2, lambda state: 1e9)
        assert (state.fitness[2] < 1e9).all()
        assert state.best[2] == state.fitness[2].min() < 1e9
        assert state.populations[2].best_value == state.best[2]
        assert state.stagnation[2] == 0 and state.improved[2]


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

    @pytest.mark.parametrize("field,length", [("a1", 2), ("a2", 2), ("a31", 4),
                                              ("a32", 2), ("a33", 4)])
    def test_wrong_field_length_rejected_before_any_change(self, field, length):
        # a fourth entry names a task that does not exist; 7 is out of range
        state = E.init_populations(tiny_instance(3, 3), 8, seed=1, budget=10)
        E.emt_step(state, bundle_for(state, a2=0.3))
        bundle = bundle_for(state, a2=0.3)
        setattr(bundle, field, np.resize(getattr(bundle, field), length))
        getattr(bundle, field)[length - 1] = 7
        before = snapshot(state)
        with pytest.raises(ValueError, match=f"^action {field} has {length} "
                                             "entries, but the number of "
                                             "tasks K is 3$"):
            E.emt_step(state, bundle)
        assert_same_state(snapshot(state), before)

    @pytest.mark.parametrize("field,value", [
        ("a1", 1.7), ("a1", 2.2), ("a1", np.nan),
        ("a2", np.nan), ("a2", np.inf), ("a2", -0.1), ("a2", 3.0), ("a2", 1e308),
        ("a32", np.nan), ("a32", -0.01), ("a32", 1.5),
        ("a33", -np.inf), ("a33", -1.0), ("a33", 1.01),
    ])
    def test_bad_action_rejected_before_any_change(self, field, value):
        state = E.init_populations(tiny_instance(3, 3), 6, seed=1, budget=10)
        bundle = bundle_for(state, a2=0.3)
        setattr(bundle, field, getattr(bundle, field).astype(float))
        getattr(bundle, field)[1] = value
        before = snapshot(state)
        with pytest.raises(ValueError, match=f"^action {field} of task 1 is "
                                             f"{re.escape(str(value))}, expected "):
            E.emt_step(state, bundle)
        assert_same_state(snapshot(state), before)

    @pytest.mark.parametrize("a31", [[1, 7, 1], [1, 0, 1], [1, -1, 1],
                                     [1.0, 2.5, 1.0], [1.0, np.nan, 1.0]])
    def test_bad_operator_rejected_before_any_change(self, a31):
        # task 0 would transfer and select before task 1's operator is used
        state = E.init_populations(tiny_instance(3, 3), 8, seed=1, budget=10)
        E.emt_step(state, bundle_for(state, a2=0.3))
        bundle = bundle_for(state, a2=0.5)
        bundle.a31 = np.array(a31)
        before = snapshot(state)
        with pytest.raises(ValueError, match="a31 of task 1 is"):
            E.emt_step(state, bundle)
        assert_same_state(snapshot(state), before)

    def test_integral_float_routing_accepted(self):
        state, twin = (E.init_populations(tiny_instance(3, 3), 8, seed=1, budget=10)
                       for _ in range(2))
        E.emt_step(state, bundle_for(state, a1=[1.0, 2.0, 0.0], a2=0.3, op=2))
        E.emt_step(twin, bundle_for(twin, a1=[1, 2, 0], a2=0.3, op=2))
        assert_same_state(snapshot(state), snapshot(twin))

    @pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                           lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["deepcopy", "pickle"])
    def test_copied_state_steps_like_original(self, duplicate):
        state = E.init_populations(tiny_instance(3, 3), 8, seed=1, budget=10)
        E.emt_step(state, bundle_for(state, a2=0.3, op=2))
        twin = duplicate(state)
        bundle = bundle_for(state, a1=[2, 0, 1], a2=0.4, op=3)
        E.emt_step(state, bundle)
        E.emt_step(twin, bundle)
        assert_same_state(snapshot(twin), snapshot(state))
        assert twin.populations[1].best_value == state.best[1]

    def test_range_edges_accepted(self):
        # a2 above 0.5 is the no_kc ablation's range, up to 1
        state = E.init_populations(tiny_instance(3, 3), 6, seed=1, budget=10)
        for a2, f, cr in ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)):
            E.emt_step(state, bundle_for(state, a2=a2, f=f, cr=cr))
            assert (state.n_transfer == (0 if a2 == 0.0 else 6)).all()
        assert state.evaluations == (1 + 2) * 3 * 6

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
            E.emt_step(state, bundle_for(state, a2=0.5))
            assert (state.n_success <= state.n_transfer).all()
            assert (state.n_transfer == 5).all()

    def test_reward_matches_recomputation(self):
        state = E.init_populations(tiny_instance(2, 4), 8, seed=5, budget=10)
        before = state.best_values()
        reward, rc, rk = E.emt_step(state, bundle_for(state, a2=0.25, op=2))
        expected, expected_rc, expected_rk = E.compute_reward(
            before, state.best_values(), state.f0, state.n_transfer,
            state.n_success)
        assert reward == pytest.approx(expected)
        np.testing.assert_array_equal(rc, expected_rc)
        np.testing.assert_array_equal(rk, expected_rk)

    def test_state_size_does_not_grow_with_generations(self):
        # only the last generation's transfer counts are kept; Python ints
        # (the streams' states, the evaluation count) pickle to a length
        # that depends on their value, so they are left out
        state = E.init_populations(tiny_instance(3, 4), 8, seed=6, budget=30)
        sizes = []
        for t in range(1, 31):
            E.emt_step(state, bundle_for(state, a2=0.25))
            if t in (1, 30):
                fixed = {**vars(state), "task_rngs": None, "evaluations": None}
                sizes.append(len(pickle.dumps(fixed)))
        assert sizes[0] == sizes[1]


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


def reference_features(state):
    """The per-task feature loop that extract_state replaced."""
    k = state.n_tasks
    feats = np.zeros((k, 5))
    for j, pop in enumerate(state.populations):
        feats[j, 0] = pop.positions.std(axis=0).mean()
        denom = state.fmax0[j]
        if abs(denom) > 1e-12:
            feats[j, 1] = min((pop.fitness / denom).std(), 1.0)
        feats[j, 2] = min(state.stagnation[j] / state.budget, 1.0)
        feats[j, 3] = 1.0 if state.improved[j] else 0.0
        if state.n_transfer[j] > 0:
            feats[j, 4] = state.n_success[j] / state.n_transfer[j]
    return feats


def mixed_instance(fids, dim, seed):
    """One sub-task per base function in `fids`, all of dimension `dim`."""
    rng = derive_rng(seed, "mixed")
    subs = []
    for fid in fids:
        lb, ub = B.SEARCH_BOUNDS[fid]
        subs.append(B.SubTaskDefinition(fid, dim, B.make_rotation(dim, rng),
                                        B.make_shift(0.2, lb, ub, dim, rng),
                                        lb, ub))
    return B.MTOInstance(f"mixed-{seed}", 0.2, tuple(set(fids)), subs)


@st.composite
def generations(draw, max_steps=3):
    """An instance shape, a seed and a few random action bundles."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(4, 20))
    d = draw(st.integers(1, 6))
    fids = draw(st.lists(st.sampled_from(list(B.BasicFunction)),
                         min_size=k, max_size=k))
    per_task = lambda values: st.lists(values, min_size=k, max_size=k)
    actions = []
    for _ in range(draw(st.integers(1, max_steps))):
        a1 = [draw(st.sampled_from([s for s in range(k) if s != j]))
              for j in range(k)]
        actions.append(ActionBundle(
            np.array(a1), np.array(draw(per_task(st.floats(0.0, 1.0)))),
            np.array(draw(per_task(st.integers(1, 4)))),
            np.array(draw(per_task(st.floats(0.0, 1.0)))),
            np.array(draw(per_task(st.floats(0.0, 1.0))))))
    return fids, n, d, draw(st.integers(0, 2 ** 32 - 1)), actions


class TestFeaturesMatchPerTaskLoop:
    @given(generations(max_steps=4), st.sets(st.integers(0, 4)))
    @settings(max_examples=60, deadline=None)
    def test_bit_equal(self, case, zero_gap):
        # zero_gap: tasks whose initial worst-vs-optimum gap is set to 0
        fids, n, d, seed, actions = case
        state = E.init_populations(mixed_instance(fids, d, seed), n, seed, 7)
        for j in zero_gap & set(range(len(fids))):
            state.fmax0[j] = 0.0
        # before any transfer, then after every generation
        for action in [None] + actions:
            if action is not None:
                E.emt_step(state, action)
            feats = E.extract_state(state)
            assert feats.tobytes() == reference_features(state).tobytes()

    def test_paper_scale_and_no_transfer_task(self):
        state = E.init_populations(tiny_instance(10, 50, fid=B.BasicFunction.GRIEWANK),
                                   50, seed=3, budget=250)
        assert E.extract_state(state).tobytes() == reference_features(state).tobytes()
        bundle = bundle_for(state, a2=0.3)
        bundle.a2[4] = 0.0  # task 4 transfers nothing: n_transfer = 0
        for _ in range(3):
            E.emt_step(state, bundle)
        assert state.n_transfer[4] == 0 and state.n_transfer[3] == 15
        assert E.extract_state(state).tobytes() == reference_features(state).tobytes()


class ReferenceState:
    """Per-task copies of an EMTState and its streams, advanced by the
    sequential generation that emt_step's three phases replaced."""

    def __init__(self, state):
        self.positions = [p.positions.copy() for p in state.populations]
        self.fitness = [p.fitness.copy() for p in state.populations]
        self.best = state.best.tolist()
        self.stagnation = state.stagnation.tolist()
        self.improved = state.improved.tolist()
        self.rngs = copy.deepcopy(state.task_rngs)
        self.evaluations = state.evaluations
        self.n_transfer = state.n_transfer.tolist()
        self.n_success = state.n_success.tolist()

    def snapshot(self):
        return {"positions": np.stack(self.positions),
                "fitness": np.stack(self.fitness),
                "best": self.best, "stagnation": self.stagnation,
                "improved": self.improved, "evaluations": self.evaluations,
                "n_transfer": self.n_transfer, "n_success": self.n_success,
                "streams": [rng.bit_generator.state for rng in self.rngs]}


def reference_transfer(tgt, tgt_fit, src, src_fit, a2, op_id, f, cr, rng):
    """Transfer offspring and hosts from one rng.choice per draw."""
    n, d = tgt.shape
    m = min(int(np.floor(a2 * n + 0.5)), n)
    if m <= 0:
        return np.empty((0, d)), np.empty(0, dtype=int)
    hosts = rng.choice(n, size=m, replace=False)
    elites = np.argsort(src_fit, kind="stable")[:m]
    mutants = replay_mutants(op_id, tgt, tgt_fit, src, src_fit, elites, f, rng)
    mask = rng.random((m, d)) < cr
    mask[np.arange(m), rng.integers(0, d, size=m)] = True
    return np.clip(np.where(mask, mutants, tgt[hosts]), 0.0, 1.0), hosts


def reference_step(ref, instance, action):
    """Per task in index order: transfer_evolve, self_evolve, evaluation,
    greedy selection, each task finished before the next starts."""
    k = len(ref.positions)
    n_transfer = np.zeros(k, dtype=int)
    n_success = np.zeros(k, dtype=int)
    for j in range(k):
        x, fit, rng, s = ref.positions[j], ref.fitness[j], ref.rngs[j], action.a1[j]
        n = len(x)
        offspring, hosts = reference_transfer(
            x, fit, ref.positions[s], ref.fitness[s], float(action.a2[j]),
            int(action.a31[j]), float(action.a32[j]), float(action.a33[j]), rng)
        transfer_mask = np.zeros(n, dtype=bool)
        transfer_mask[hosts] = True
        parents = np.flatnonzero(~transfer_mask)
        combined = np.empty_like(x)
        combined[hosts] = offspring
        combined[parents] = replay_self(x, parents, rng)
        trial_fit = B.evaluate_subtask_batch(instance.sub_tasks[j], combined)
        ref.evaluations += n
        accept = trial_fit <= fit
        n_transfer[j] = len(hosts)
        n_success[j] = np.count_nonzero(accept & transfer_mask)
        x[accept] = combined[accept]
        fit[accept] = trial_fit[accept]
        ref.improved[j] = bool(fit.min() < ref.best[j])
        if ref.improved[j]:
            ref.best[j] = float(fit.min())
        else:
            ref.stagnation[j] += 1
    ref.n_transfer, ref.n_success = n_transfer.tolist(), n_success.tolist()


class TestGenerationMatchesSequentialReference:
    @staticmethod
    def _check(fids, n, d, seed, actions):
        instance = mixed_instance(fids, d, seed)
        state = E.init_populations(instance, n, seed, budget=10)
        ref = ReferenceState(state)
        for action in actions:
            E.emt_step(state, action)
            reference_step(ref, instance, action)
            assert_same_state(snapshot(state), ref.snapshot())
            for j, pop in enumerate(state.populations):
                assert pop.best_value == state.best[j] <= state.fitness[j].min()

    @given(generations())
    @settings(max_examples=80, deadline=None)
    def test_bit_equal(self, case):
        self._check(*case)

    def test_sources_before_and_after_the_target(self):
        # task 0 reads task 2 before its selection, tasks 1 and 2 read
        # tasks 0 and 1 after theirs; every operator, m_kt from 1 to N
        fids = [B.BasicFunction.SPHERE, B.BasicFunction.RASTRIGIN,
                B.BasicFunction.WEIERSTRASS]
        actions = [ActionBundle(np.array([2, 0, 1]), np.array([a2, 1.0, 0.05]),
                                np.array([op, op % 4 + 1, (op + 1) % 4 + 1]),
                                np.full(3, 0.6), np.full(3, 0.4))
                   for op, a2 in zip((1, 2, 3, 4), (0.1, 0.5, 1.0, 0.0))]
        self._check(fids, 10, 4, 5, actions)
