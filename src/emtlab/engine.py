"""Multi-population differential-evolution engine with explicit
cross-task knowledge transfer.

Each of the K sub-tasks owns a population of N individuals in the unified
[0, 1]^D space; EMTState stores them only as the stacks positions (K, N, D)
and fitness (K, N), with (K,) status arrays, and state.populations builds
task j's views of its rows, with its best-so-far, each time it is read.
One generation, driven by a per-step action bundle:

  1. per task j, m_kt = round(a2_j * N) transfer offspring are built from
     the m_kt best individuals of the source population a1_j using one of
     four mutation operators, crossed with randomly chosen host parents;
  2. the remaining parents produce self-evolution offspring with
     DE/rand/1 and binomial crossover (F=0.5, Cr=0.7);
  3. per task, each parent-offspring pair undergoes greedy selection
     (offspring survives on ties); then one array step updates every
     task's best-so-far, stagnation and improvement flag, and replaces
     the transfer and survivor counts, n_transfer and n_success.

Mutation operator pool for transfer offspring, tabulated in OPERATORS as
two flags per operator: whether the base comes from the source (else the
target) and whether it is that population's best row (else a random one).
The difference pair always comes from the other population.  Source
indices are drawn from the source elite set, target indices from the
target population:

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
(_draw_rows, then _fix_rows).

emt_step runs a generation in three phases.  First, per task in index
order, it makes every draw of the generation from that task's stream, in
the order above, and finishes the transfer picks into pool positions;
every count depends only on the action, N and D, so no draw waits for an
offspring.  Second, one array pass (self_evolve) builds the
self-evolution offspring of all K tasks from the positions before the
generation.  Third, per task in index order, it builds the transfer
offspring from the source population as it stands then, evaluates the
task's offspring and selects.  Every stream is consumed as when each task
ran all its steps before the next began.  Nothing in the third phase reads
the status, so it is updated for all tasks after the last selection.

Known fault, kept for reproducibility: the third phase is sequential, so
a transfer into task j from a source a1_j < j reads that source's
population after this generation's selection, and one from a1_j > j the
population before it.  The engine is not permutation-equivariant in the
task axis, although the controller is: relabelling the tasks of an
instance (same streams, positions and routing) changes the results.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .benchmarks import MTOInstance, evaluate_subtask_batch
from .seeds import derive_rng

SELF_F = 0.5
SELF_CR = 0.7
MIN_POP_SIZE = 4                   # DE/rand/1 needs three partners besides the parent
# accepted action ranges: the transfer proportion, F and Cr
ACTION_RANGES = {"a2": (0.0, 1.0), "a32": (0.0, 1.0), "a33": (0.0, 1.0)}
# a normalizer (f0 or fmax0; f* = 0 for every generated sub-task) is valid
# where its magnitude exceeds this
NORMALIZER_TOL = 1e-12
# op_id: (base is from the source, base is its population's best row); the
# difference pair comes from the other population
OPERATORS = {1: (False, True), 2: (False, False), 3: (True, False), 4: (True, True)}


class Population(NamedTuple):
    """Task j of an EMTState: views of its rows of the stacked positions
    (N, D) and fitness (N,), and its best-so-far when the view was built."""
    positions: np.ndarray
    fitness: np.ndarray
    best_value: float


@dataclass
class EMTState:
    instance: MTOInstance
    positions: np.ndarray          # (K, N, D) in [0, 1]
    fitness: np.ndarray            # (K, N)
    budget: int                    # total generations G, for the stagnation feature
    task_rngs: list
    evaluations: int = 0

    def __post_init__(self):
        k = len(self.positions)
        # (K,) per task: best-so-far, best and worst initial fitness
        self.best = self.fitness.min(axis=1)
        self.f0 = self.best.copy()
        self.fmax0 = self.fitness.max(axis=1)
        self.stagnation = np.zeros(k, dtype=int)
        self.improved = np.zeros(k, dtype=bool)
        # (K,) transfers and their survivors in the last generation
        self.n_transfer, self.n_success = np.zeros((2, k), dtype=int)

    @property
    def populations(self) -> list:
        """One Population per task, built on every read; only the stacks
        are stored, so a copied or unpickled state stays consistent."""
        return list(map(Population, self.positions, self.fitness, self.best.tolist()))

    @property
    def n_tasks(self) -> int:
        return len(self.positions)

    def best_values(self) -> np.ndarray:
        return self.best.copy()


def check_pop_size(pop_size: int) -> None:
    """Raises ValueError unless DE/rand/1 can draw its partners."""
    if pop_size < MIN_POP_SIZE:
        raise ValueError(f"population size must be >= {MIN_POP_SIZE} for "
                         f"DE/rand/1, got {pop_size}")


def init_populations(instance: MTOInstance, pop_size: int, seed: int,
                     budget: int) -> EMTState:
    """Uniform random populations, evaluated, with per-task RNG streams
    derived from (seed, "task", j).  A task whose initial fitness is not
    finite raises ValueError naming the instance, the task and its box."""
    check_pop_size(pop_size)
    rngs = [derive_rng(seed, "task", j) for j in range(instance.n_tasks)]
    positions = np.stack([rng.random((pop_size, defn.dim))
                          for defn, rng in zip(instance.sub_tasks, rngs)])
    fitness = np.stack([evaluate_subtask_batch(defn, x)
                        for defn, x in zip(instance.sub_tasks, positions)])
    finite = np.isfinite(fitness).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite))
        defn = instance.sub_tasks[j]
        raise ValueError(f"instance {instance.instance_id} task {j} ({defn.function.key} "
                         f"on [{defn.lb:g}, {defn.ub:g}]): initial fitness is not finite")
    return EMTState(instance, positions, fitness, budget, rngs,
                    evaluations=fitness.size)


def extract_state(state: EMTState) -> np.ndarray:
    """Per-task feature vectors, shape (K, 5).

    s1  mean over dimensions of the per-dimension population std
    s2  std of objective values normalized by the initial worst-vs-optimum gap
    s3  cumulative stagnation count over the total budget
    s4  1 if the best-so-far value improved in the last generation
    s5  survival rate of the last generation's transferred solutions
    """
    valid = np.abs(state.fmax0) > NORMALIZER_TOL
    spread = (state.fitness / np.where(valid, state.fmax0, 1.0)[:, None]).std(axis=1)
    feats = np.zeros((state.n_tasks, 5))
    feats[:, 0] = state.positions.std(axis=1).mean(axis=1)
    feats[:, 1] = np.where(valid, np.minimum(spread, 1.0), 0.0)
    feats[:, 2] = np.minimum(state.stagnation / state.budget, 1.0)
    feats[:, 3] = state.improved
    # no transfer means no survivor: 0 / 1
    feats[:, 4] = state.n_success / np.maximum(state.n_transfer, 1)
    return feats


@lru_cache(maxsize=4096)
def _bounds(segments, rows):
    """Exclusive bounds of `rows` rows of draws for (pool, count) segments,
    read-only."""
    row = [b for pool, count in segments for b in
           ([pool] * count if pool < count else
            [*range(pool - count + 1, pool + 1), *range(count, 1, -1)])]
    bounds = np.empty((rows, len(row)), dtype=np.int64)
    bounds[:] = row
    bounds.flags.writeable = False
    return bounds


def _draw_rows(rng, rows, segments):
    """Raw draws of `rows` rows of positions into pools of the given sizes,
    made by one integers() call; _fix_rows turns them into positions.

    The two steps together equal `rows` successive rows that each call, in
    segment order, rng.choice(pool, size=count, replace=pool < count) for
    every (pool, count) segment, with count <= 3: same numbers and same
    stream.  choice without replacement is Floyd's algorithm whenever
    count <= 3 (numpy shuffles instead only when pool > 10000 and count >
    pool // 50).  Floyd draws on [0, j] for j = pool-count .. pool-1 and
    takes j itself when the value is already taken, then a Fisher-Yates
    shuffle draws on [0, i] for i = count-1 .. 1; with replacement choice
    draws count times on [0, pool-1].  integers() over an array of
    exclusive bounds makes those bounded draws element by element in C
    order, rejection sampling included, and a bound of 1 consumes nothing.
    """
    return rng.integers(0, _bounds(tuple(segments), rows))


def _fix_rows(draws, segments):
    """Positions from _draw_rows' draws, one (rows, count) array per
    segment; the caller indexes its pool.  Overwrites `draws`."""
    every_row = np.arange(len(draws))
    out, start = [], 0
    for pool, count in segments:
        pos = draws[:, start:start + count]
        if pool >= count:
            for i in range(1, count):
                taken = pos[:, 0] == pos[:, i]
                for c in range(1, i):
                    taken |= pos[:, c] == pos[:, i]
                pos[taken, i] = pool - count + i
            for k, i in enumerate(range(count - 1, 0, -1)):
                j = draws[:, start + count + k]
                swap = pos[:, i].copy()
                pos[:, i] = pos[every_row, j]
                pos[every_row, j] = swap
            start += count - 1
        out.append(pos)
        start += count
    return out


def _crossover_mask(rng, rows, d, cr):
    """Binomial crossover mask: each gene from the mutant with probability
    cr, and one j_rand gene per row always."""
    mask = rng.random((rows, d)) < cr
    mask[np.arange(rows), rng.integers(0, d, size=rows)] = True
    return mask


def _draw_self(rng, rows, n, d):
    """Self-evolution draws of `rows` parents in a population of n: (raw
    draws of three distinct partners among the N - 1 rows other than the
    parent, crossover mask)."""
    return (_draw_rows(rng, rows, ((n - 1, 3),)),
            _crossover_mask(rng, rows, d, SELF_CR))


def self_evolve(positions, partners, parents, mask) -> np.ndarray:
    """DE/rand/1/bin offspring, clamped to [0, 1], in one array pass.

    positions is (K, N, D); parents are row indices into its (K*N, D)
    reshape; partners and mask are each parent's draws from _draw_self,
    its partners taken from its own population.
    """
    k, n, d = positions.shape
    parents = np.asarray(parents, dtype=int)
    r, = _fix_rows(partners, ((n - 1, 3),))
    local = parents % n
    # positions into "every row but the parent" become rows of the stack
    r += (r >= local[:, None]) + (parents - local)[:, None]
    x = positions.reshape(k * n, d)
    mutants = x[r[:, 0]] + SELF_F * (x[r[:, 1]] - x[r[:, 2]])
    return np.clip(np.where(mask, mutants, x[parents]), 0.0, 1.0)


class TransferDraws(NamedTuple):
    """One task-generation's transfer draws, made by _draw_transfer."""
    hosts: np.ndarray              # (m_kt,) target parents paired with the offspring
    picks: list                    # pool positions: the (m_kt, 1) random base
                                   # (none for a best-row base), the (m_kt, 2) pair
    mask: np.ndarray               # (m_kt, D) crossover mask


def _draw_transfer(rng, n, d, a2, op_id, cr) -> TransferDraws:
    """Transfer draws of a target of n rows.  m_kt = round(a2 * N), at most
    N; zero means no transfer and no stream consumption.  Picks are
    positions in their pools: the m_kt source elites or the n target rows."""
    m_kt = math.floor(a2 * n + 0.5)  # round half up
    if m_kt <= 0:
        return TransferDraws(np.empty(0, dtype=int), [], np.empty((0, d), dtype=bool))
    hosts = rng.choice(n, size=m_kt, replace=False)
    base_is_source, base_is_best = OPERATORS[op_id]
    base_pool, diff_pool = (m_kt, n) if base_is_source else (n, m_kt)
    segments = ((diff_pool, 2),) if base_is_best else ((base_pool, 1), (diff_pool, 2))
    return TransferDraws(hosts, _fix_rows(_draw_rows(rng, m_kt, segments), segments),
                         _crossover_mask(rng, m_kt, d, cr))


def transfer_evolve(target: Population, source: Population, op_id: int,
                    f: float, draws: TransferDraws):
    """Knowledge-transfer offspring for one target task.

    Returns (offspring, hosts): hosts are the uniformly sampled target
    parents each offspring is paired with for crossover and selection.
    """
    hosts = draws.hosts
    if len(hosts) == 0:
        return np.empty((0, target.positions.shape[1])), hosts
    base_is_source, base_is_best = OPERATORS[op_id]
    # source picks index the elite set, the m_kt lowest-fitness source
    # rows; target picks are rows already
    elites = source.fitness.argsort(kind="stable")[:len(hosts)]
    from_source = [base_is_source] * (not base_is_best) + [not base_is_source]
    rows = [elites[p] if src else p for src, p in zip(from_source, draws.picks)]
    base, diff = (source, target) if base_is_source else (target, source)
    base_rows = base.fitness.argmin() if base_is_best else rows[0][:, 0]
    x, pairs = diff.positions, rows[-1]
    mutants = base.positions[base_rows] + f * (x[pairs[:, 0]] - x[pairs[:, 1]])
    trials = np.where(draws.mask, mutants, target.positions[hosts])
    return np.clip(trials, 0.0, 1.0), hosts


def greedy_select(pop: Population, offspring: np.ndarray,
                  offspring_fitness: np.ndarray,
                  transfer_mask: np.ndarray) -> int:
    """Pairwise parent-offspring survival of the fitter (offspring wins
    ties), in place.  Returns the number of surviving transfer offspring."""
    accept = offspring_fitness <= pop.fitness
    np.copyto(pop.positions, offspring, where=accept[:, None])
    np.copyto(pop.fitness, offspring_fitness, where=accept)
    return int(np.count_nonzero(accept & transfer_mask))


def compute_reward(best_before: np.ndarray, best_after: np.ndarray,
                   f0: np.ndarray, n_transfer: np.ndarray,
                   n_success: np.ndarray):
    """Per-step reward: sum over tasks of the normalized best-so-far gain
    plus the transfer survival rate.

    R_c,j = (f_j^t - f_j^{t+1}) / f_j^0 (the optimum f* is 0 for every
    generated sub-task), 0 when the normalizer degenerates;
    R_k,j = n_success / n_transfer, 0 when nothing transferred.
    """
    valid = np.abs(f0) > NORMALIZER_TOL
    rc = np.where(valid, (best_before - best_after) / np.where(valid, f0, 1.0), 0.0)
    # no transfer means no survivor: 0 / 1
    rk = n_success / np.maximum(n_transfer, 1)
    return float(np.sum(rc + rk)), rc, rk


def emt_step(state: EMTState, action):
    """Advance every population by one generation under the action bundle.

    Mutates the state in place; returns compute_reward's (reward, rc, rk),
    the per-task components for logging.  A field without one entry
    per task, or with an entry outside its domain (a1: another task's
    index; a31: an id of OPERATORS; a2, a32, a33: ACTION_RANGES), raises
    ValueError before anything changes.
    """
    k = state.n_tasks
    checked = {}
    for name in ("a1", "a2", "a31", "a32", "a33"):
        values = np.asarray(getattr(action, name), dtype=np.float64)
        if len(values) != k:
            raise ValueError(f"action {name} has {len(values)} entries, but the "
                             f"number of tasks K is {k}")
        if name == "a1":
            ok = ((values % 1 == 0) & (values >= 0) & (values < k)
                  & (values != np.arange(k)))
            expected = "the integral index of another task as source"
        elif name == "a31":
            ok = (values[:, None] == list(OPERATORS)).any(axis=1)
            expected = f"an operator id in {sorted(OPERATORS)}"
        else:
            lo, hi = ACTION_RANGES[name]
            ok = np.isfinite(values) & (values >= lo) & (values <= hi)
            expected = f"a finite value in [{lo}, {hi}]"
        bad = np.flatnonzero(~ok)
        if len(bad):
            raise ValueError(f"action {name} of task {bad[0]} is {values[bad[0]]}, "
                             f"expected {expected}")
        checked[name] = values
    # Python scalars, converted once: phases 1 and 3 read them task by task
    a1, a31 = (checked[f].astype(int).tolist() for f in ("a1", "a31"))
    a2, a32, a33 = (checked[f].tolist() for f in ("a2", "a32", "a33"))
    _, n, d = state.positions.shape
    # phase 1: every draw of the generation, task by task
    transfers, selfs = [], []
    transfer_mask = np.zeros((k, n), dtype=bool)
    for j, rng in enumerate(state.task_rngs):
        draws = _draw_transfer(rng, n, d, a2[j], a31[j], a33[j])
        transfer_mask[j, draws.hosts] = True
        transfers.append(draws)
        selfs.append(_draw_self(rng, n - len(draws.hosts), n, d))
    # phase 2: the self-evolution offspring of every task at once
    partners, masks = zip(*selfs)
    combined = np.empty_like(state.positions)
    self_parents = np.flatnonzero(~transfer_mask)
    combined.reshape(k * n, d)[self_parents] = self_evolve(
        state.positions, np.concatenate(partners), self_parents,
        np.concatenate(masks))
    # phase 3: transfer, evaluation and selection, task by task
    best_before = state.best_values()
    n_transfer = np.count_nonzero(transfer_mask, axis=1)
    n_success = np.zeros(k, dtype=int)
    pops = state.populations
    for j, pop in enumerate(pops):
        offspring, hosts = transfer_evolve(pop, pops[a1[j]], a31[j], a32[j],
                                           transfers[j])
        combined[j, hosts] = offspring
        fitness = evaluate_subtask_batch(state.instance.sub_tasks[j], combined[j])
        state.evaluations += n
        n_success[j] = greedy_select(pop, combined[j], fitness, transfer_mask[j])
    # status of every task: ties do not improve the best-so-far; the
    # transfer counts are fresh arrays, so callers may keep the old ones
    best = state.fitness.min(axis=1)
    np.less(best, state.best, out=state.improved)
    np.copyto(state.best, best, where=state.improved)
    state.stagnation += ~state.improved
    state.n_transfer, state.n_success = n_transfer, n_success
    return compute_reward(best_before, state.best_values(), state.f0,
                          n_transfer, n_success)
