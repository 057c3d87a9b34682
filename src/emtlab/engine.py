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

Mutation operator pool for transfer offspring, tabulated in OPERATORS
(src indices are drawn from the source elite set, tgt indices from the
target population):

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
Each row's indices are the numbers one rng.choice per row would draw, in
the same stream order, but all operator indices of a task-generation
come from one bounded-integer call, and so do all its partner indices
(_pick_rows).

Known fault, kept for reproducibility: emt_step advances the tasks in
index order, each through selection before the next starts.  A transfer
into task j from a source a1_j < j therefore reads that source's
population after this generation's selection, and one from a1_j > j the
population before it.  The engine is not permutation-equivariant in the
task axis, although the controller is: relabelling the tasks of an
instance (same streams, positions and routing) changes the results.
"""

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import MTOInstance, evaluate_subtask_batch
from .seeds import derive_rng

SELF_F = 0.5
SELF_CR = 0.7
# accepted action ranges; transfer_evolve caps the transfer count at N
ACTION_RANGES = {"a2": (0.0, np.inf), "a32": (0.0, 1.0), "a33": (0.0, 1.0)}
# op_id: (base population, whether the base is that population's best row,
#         difference-pair population)
OPERATORS = {1: ("target", True, "source"),
             2: ("target", False, "source"),
             3: ("source", False, "target"),
             4: ("source", True, "target")}


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


def _pick_rows(rng, rows, segments):
    """Positions into pools of the given sizes; the caller indexes its pool.

    Equals `rows` successive rows that each call, in segment order,
    rng.choice(pool, size=count, replace=pool < count) for every (pool,
    count) segment, with count <= 3; returns one (rows, count) array per
    segment.  Same numbers and same stream, from one integers() call:
    choice without replacement is Floyd's algorithm whenever count <= 3
    (numpy shuffles instead only when pool > 10000 and count > pool // 50).  Floyd
    draws on [0, j] for j = pool-count .. pool-1 and takes j itself when
    the value is already taken, then a Fisher-Yates shuffle draws on
    [0, i] for i = count-1 .. 1; with replacement choice draws count times
    on [0, pool-1].  integers() over an array of exclusive bounds makes
    those bounded draws element by element in C order, rejection sampling
    included, and a bound of 1 consumes nothing.
    """
    spans = [[pool] * count if pool < count else
             list(range(pool - count + 1, pool + 1)) + list(range(count, 1, -1))
             for pool, count in segments]
    bounds = np.empty((rows, sum(map(len, spans))), dtype=np.int64)
    bounds[:] = [b for span in spans for b in span]
    draws = rng.integers(0, bounds)
    every_row = np.arange(rows)
    out, start = [], 0
    for (pool, count), span in zip(segments, spans):
        pos = draws[:, start:start + count]
        if pool >= count:
            for i in range(1, count):
                taken = (pos[:, :i] == pos[:, i:i + 1]).any(axis=1)
                pos[taken, i] = pool - count + i
            for k, i in enumerate(range(count - 1, 0, -1)):
                j = draws[:, start + count + k]
                swap = pos[:, i].copy()
                pos[:, i] = pos[every_row, j]
                pos[every_row, j] = swap
        out.append(pos)
        start += len(span)
    return out


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
    x = pop.positions
    r, = _pick_rows(rng, len(parents), [(pop.size - 1, 3)])
    # positions into "every row but the parent" become row indices
    r += r >= parents[:, None]
    mutants = x[r[:, 0]] + f * (x[r[:, 1]] - x[r[:, 2]])
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
    if op_id not in OPERATORS:
        raise ValueError(f"unknown operator id: {op_id}")
    n = target.size
    m_kt = min(_round_half_up(a2 * n), n)
    if m_kt <= 0:
        return np.empty((0, target.positions.shape[1])), np.empty(0, dtype=int)
    hosts = rng.choice(n, size=m_kt, replace=False)
    # elite set: the m_kt lowest-fitness source individuals
    elites = np.argsort(source.fitness, kind="stable")[:m_kt]
    pools = {"target": (target, np.arange(n)), "source": (source, elites)}
    base_name, base_is_best, diff_name = OPERATORS[op_id]
    (base, base_pool), (diff, diff_pool) = pools[base_name], pools[diff_name]
    # per offspring: the random base position (unless the base is the
    # best row), then the difference pair
    segments = [(len(diff_pool), 2)]
    if not base_is_best:
        segments.insert(0, (len(base_pool), 1))
    picks = _pick_rows(rng, m_kt, segments)
    base_rows = (np.full(m_kt, np.argmin(base.fitness)) if base_is_best
                 else base_pool[picks[0][:, 0]])
    pairs = diff_pool[picks[-1]]
    mutants = (base.positions[base_rows]
               + f * (diff.positions[pairs[:, 0]] - diff.positions[pairs[:, 1]]))
    trials = _binomial_crossover(rng, target.positions[hosts], mutants, cr)
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
    valid = np.abs(f0) >= 1e-12
    rc = np.where(valid, (best_before - best_after) / np.where(valid, f0, 1.0), 0.0)
    rk = np.where(n_transfer > 0, n_success / np.maximum(n_transfer, 1), 0.0)
    return float(np.sum(rc + rk)), rc, rk


def emt_step(state: EMTState, action):
    """Advance every population by one generation under the action bundle.

    Mutates the state in place; returns (reward, info) where info carries
    the per-task reward components for logging.  A bad routing or a value
    outside ACTION_RANGES raises ValueError before anything changes.
    """
    k = state.n_tasks
    a1 = np.asarray(action.a1, dtype=int)
    if len(a1) != k:
        raise ValueError("action has wrong number of tasks")
    if np.any(a1 == np.arange(k)) or a1.min() < 0 or a1.max() >= k:
        raise ValueError("source task indices must differ from the target")
    for name, (lo, hi) in ACTION_RANGES.items():
        values = np.asarray(getattr(action, name), dtype=np.float64)
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= lo) & (values <= hi)))
        if len(bad):
            raise ValueError(f"action {name} of task {bad[0]} is {values[bad[0]]}, "
                             f"expected a finite value in [{lo}, {hi}]")
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
