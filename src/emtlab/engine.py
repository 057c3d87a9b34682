"""Multi-population differential-evolution engine with explicit
cross-task knowledge transfer.

Each of the K sub-tasks owns a population of N individuals in the unified
[0, 1]^D space.  One generation, driven by a per-step action bundle:

  1. per task j, m_kt = round(a2_j * N) transfer offspring are built from
     the m_kt best individuals of the source population a1_j using one of
     four mutation operators, crossed with randomly chosen host parents;
  2. the remaining parents produce self-evolution offspring with
     DE/rand/1 and binomial crossover (F=0.5, Cr=0.7);
  3. each parent-offspring pair undergoes greedy selection (offspring
     survives on ties) and the generation's per-task transfer and
     transfer-survival counts are appended to EMTState.transfers.

Mutation operator pool for transfer offspring (src indices are drawn from
the source elite set, tgt indices from the target population):

  1  v = tgt_best + F (src_r1 - src_r2)
  2  v = tgt_r1   + F (src_r2 - src_r3)
  3  v = src_r1   + F (tgt_r2 - tgt_r3)
  4  v = src_best + F (tgt_r1 - tgt_r2)

Randomness: task j draws only from its own stream, in a fixed order per
generation: transfer host subset (skipped entirely when m_kt = 0), then
per-offspring operator indices, then the transfer crossover mask matrix
and j_rand vector, then per-parent self-evolution partner indices, then
the self crossover mask matrix and j_rand vector.  With a2 = 0 the stream
consumption is exactly that of an independent single-task DE/rand/1/bin.
"""

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import MTOInstance, evaluate_subtask_batch
from .seeds import derive_rng

SELF_F = 0.5
SELF_CR = 0.7


@dataclass
class Population:
    positions: np.ndarray          # (N, D) in [0, 1]
    fitness: np.ndarray            # (N,)
    best_value: float
    stagnation: int = 0            # cumulative generations without best improvement
    improved_last: bool = False    # best-so-far updated in the last generation

    @property
    def size(self) -> int:
        return self.positions.shape[0]


@dataclass
class EMTState:
    instance: MTOInstance
    populations: list
    f0: np.ndarray                 # best fitness of each initial population
    fmax0: np.ndarray              # worst fitness of each initial population
    budget: int                    # total generations G, for the stagnation feature
    task_rngs: list
    evaluations: int = 0
    # one (n_transfer, n_success) pair of (K,) arrays per completed generation
    transfers: list = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return len(self.populations)

    def best_values(self) -> np.ndarray:
        return np.array([p.best_value for p in self.populations])


def init_populations(instance: MTOInstance, pop_size: int, seed: int,
                     budget: int) -> EMTState:
    """Uniform random populations, evaluated, with per-task RNG streams
    derived from (seed, "task", j)."""
    if pop_size < 4:
        raise ValueError("population size must be >= 4 for DE/rand/1")
    rngs = [derive_rng(seed, "task", j) for j in range(instance.n_tasks)]
    pops = []
    evaluations = 0
    for defn, rng in zip(instance.sub_tasks, rngs):
        positions = rng.random((pop_size, defn.dim))
        fitness = evaluate_subtask_batch(defn, positions)
        evaluations += pop_size
        pops.append(Population(positions, fitness, float(fitness.min())))
    f0 = np.array([p.best_value for p in pops])
    fmax0 = np.array([p.fitness.max() for p in pops])
    return EMTState(instance, pops, f0, fmax0, budget, rngs,
                    evaluations=evaluations)


def extract_state(state: EMTState) -> np.ndarray:
    """Per-task feature vectors, shape (K, 5).

    s1  mean over dimensions of the per-dimension population std
    s2  std of objective values normalized by the initial worst-vs-optimum gap
    s3  cumulative stagnation count over the total budget
    s4  1 if the best-so-far value improved in the last generation
    s5  survival rate of the last generation's transferred solutions
    """
    k = state.n_tasks
    feats = np.zeros((k, 5))
    last = state.transfers[-1] if state.transfers else None
    for j, pop in enumerate(state.populations):
        feats[j, 0] = pop.positions.std(axis=0).mean()
        denom = state.fmax0[j]  # f* = 0 for all generated sub-tasks
        if abs(denom) > 1e-12:
            feats[j, 1] = min((pop.fitness / denom).std(), 1.0)
        feats[j, 2] = min(pop.stagnation / state.budget, 1.0)
        feats[j, 3] = 1.0 if pop.improved_last else 0.0
        if last is not None and last[0][j] > 0:
            feats[j, 4] = last[1][j] / last[0][j]
    return feats


def _distinct_partners(rng, n, parent):
    pool = np.concatenate([np.arange(parent), np.arange(parent + 1, n)])
    return rng.choice(pool, size=3, replace=False)


def _binomial_crossover(rng, base, mutants, cr):
    m, d = mutants.shape
    mask = rng.random((m, d)) < cr
    j_rand = rng.integers(0, d, size=m)
    mask[np.arange(m), j_rand] = True
    return np.where(mask, mutants, base)


def self_evolve(pop: Population, rng: np.random.Generator, parents,
                f: float = SELF_F, cr: float = SELF_CR) -> np.ndarray:
    """DE/rand/1/bin offspring for the given parent indices, clamped to [0, 1]."""
    parents = np.asarray(parents, dtype=int)
    n = pop.size
    x = pop.positions
    mutants = np.empty((len(parents), x.shape[1]))
    for i, parent in enumerate(parents):
        r1, r2, r3 = _distinct_partners(rng, n, parent)
        mutants[i] = x[r1] + f * (x[r2] - x[r3])
    trials = _binomial_crossover(rng, x[parents], mutants, cr)
    return np.clip(trials, 0.0, 1.0)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def transfer_evolve(target: Population, source: Population, a2: float,
                    op_id: int, f: float, cr: float,
                    rng: np.random.Generator):
    """Knowledge-transfer offspring for one target task.

    Returns (offspring, hosts): hosts are the uniformly sampled target
    parents each offspring is paired with for crossover and selection.
    m_kt = round(a2 * N) offspring are built; zero means no transfer and
    no stream consumption.
    """
    if op_id not in (1, 2, 3, 4):
        raise ValueError(f"unknown operator id: {op_id}")
    n = target.size
    d = target.positions.shape[1]
    m_kt = min(_round_half_up(a2 * n), n)
    if m_kt <= 0:
        return np.empty((0, d)), np.empty(0, dtype=int)
    hosts = rng.choice(n, size=m_kt, replace=False)
    # elite set: the m_kt lowest-fitness source individuals
    elites = np.argsort(source.fitness, kind="stable")[:m_kt]
    src = source.positions
    tgt = target.positions
    tgt_best = tgt[int(np.argmin(target.fitness))]
    src_best = src[int(np.argmin(source.fitness))]

    def pick_src(count):
        return rng.choice(elites, size=count, replace=len(elites) < count)

    def pick_tgt(count):
        return rng.choice(n, size=count, replace=False)

    mutants = np.empty((m_kt, d))
    for i in range(m_kt):
        if op_id == 1:
            r1, r2 = pick_src(2)
            mutants[i] = tgt_best + f * (src[r1] - src[r2])
        elif op_id == 2:
            t1 = pick_tgt(1)[0]
            r2, r3 = pick_src(2)
            mutants[i] = tgt[t1] + f * (src[r2] - src[r3])
        elif op_id == 3:
            r1 = pick_src(1)[0]
            t2, t3 = pick_tgt(2)
            mutants[i] = src[r1] + f * (tgt[t2] - tgt[t3])
        else:
            t1, t2 = pick_tgt(2)
            mutants[i] = src_best + f * (tgt[t1] - tgt[t2])
    trials = _binomial_crossover(rng, tgt[hosts], mutants, cr)
    return np.clip(trials, 0.0, 1.0), hosts


def greedy_select(pop: Population, offspring: np.ndarray,
                  offspring_fitness: np.ndarray,
                  transfer_mask: np.ndarray) -> int:
    """Pairwise parent-offspring survival of the fitter (offspring wins
    ties); updates best-so-far and the stagnation counter.  Returns the
    number of surviving transfer offspring."""
    accept = offspring_fitness <= pop.fitness
    n_success = int(np.count_nonzero(accept & transfer_mask))
    pop.positions[accept] = offspring[accept]
    pop.fitness[accept] = offspring_fitness[accept]
    best = int(np.argmin(pop.fitness))
    improved = pop.fitness[best] < pop.best_value
    if improved:
        pop.best_value = float(pop.fitness[best])
    else:
        pop.stagnation += 1
    pop.improved_last = improved
    return n_success


def compute_reward(best_before: np.ndarray, best_after: np.ndarray,
                   f0: np.ndarray, n_transfer: np.ndarray,
                   n_success: np.ndarray):
    """Per-step reward: sum over tasks of the normalized best-so-far gain
    plus the transfer survival rate.

    R_c,j = (f_j^t - f_j^{t+1}) / f_j^0 (the optimum f* is 0 for every
    generated sub-task), 0 when the normalizer degenerates;
    R_k,j = n_success / n_transfer, 0 when nothing transferred.
    """
    k = len(best_before)
    rc = np.zeros(k)
    rk = np.zeros(k)
    for j in range(k):
        if abs(f0[j]) >= 1e-12:
            rc[j] = (best_before[j] - best_after[j]) / f0[j]
        if n_transfer[j] > 0:
            rk[j] = n_success[j] / n_transfer[j]
    return float(np.sum(rc + rk)), rc, rk


def emt_step(state: EMTState, action):
    """Advance every population by one generation under the action bundle.

    Mutates the state in place; returns (reward, info) where info carries
    the per-task reward components for logging.
    """
    k = state.n_tasks
    a1 = np.asarray(action.a1, dtype=int)
    if len(a1) != k:
        raise ValueError("action has wrong number of tasks")
    if np.any(a1 == np.arange(k)) or a1.min() < 0 or a1.max() >= k:
        raise ValueError("source task indices must differ from the target")
    best_before = state.best_values()
    n_transfer = np.zeros(k, dtype=int)
    n_success = np.zeros(k, dtype=int)
    for j in range(k):
        pop = state.populations[j]
        rng = state.task_rngs[j]
        n = pop.size
        offspring, hosts = transfer_evolve(
            pop, state.populations[a1[j]], float(action.a2[j]),
            int(action.a31[j]), float(action.a32[j]), float(action.a33[j]), rng)
        transfer_mask = np.zeros(n, dtype=bool)
        transfer_mask[hosts] = True
        self_parents = np.flatnonzero(~transfer_mask)
        combined = np.empty_like(pop.positions)
        if len(hosts):
            combined[hosts] = offspring
        combined[self_parents] = self_evolve(pop, rng, self_parents)
        fitness = evaluate_subtask_batch(state.instance.sub_tasks[j], combined)
        state.evaluations += n
        n_transfer[j] = len(hosts)
        n_success[j] = greedy_select(pop, combined, fitness, transfer_mask)
    reward, rc, rk = compute_reward(best_before, state.best_values(), state.f0,
                                    n_transfer, n_success)
    state.transfers.append((n_transfer, n_success))
    info = {"rc": rc, "rk": rk, "n_transfer": n_transfer, "n_success": n_success}
    return reward, info


TRACE_COLUMNS = ["generation", "task", "best_so_far", "s1", "s2", "s3", "s4",
                 "s5", "n_transfer", "n_success", "source_task", "a2",
                 "op_id", "F", "Cr", "reward"]


def trace_rows(generation: int, features: np.ndarray, state: EMTState,
               action, info) -> list:
    """One trace row per task for the generation just executed; the reward
    column holds the task's own contribution R_c,j + R_k,j."""
    rows = []
    for j, pop in enumerate(state.populations):
        rows.append([generation, j, pop.best_value,
                     features[j, 0], features[j, 1], features[j, 2],
                     features[j, 3], features[j, 4],
                     int(info["n_transfer"][j]), int(info["n_success"][j]),
                     int(action.a1[j]), float(action.a2[j]),
                     int(action.a31[j]), float(action.a32[j]),
                     float(action.a33[j]),
                     float(info["rc"][j] + info["rk"][j])])
    return rows
