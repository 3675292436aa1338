"""Genetic search over fixed-cost divisor arrays, one per offered pair (arc).

Each organism decodes to a flow by solving the scaled relaxation exactly, so
every candidate is a valid flow by construction and no repair step exists.
Fitness is the decoded flow's true cost (lower is fitter). Selection is
binary tournament with the incumbent best always retained; crossover splices
a random interval from one parent into the other; mutation nudges a few
entries by at most one, clamped to the D_MIN floor.

The initial entries and mutation's positions and steps are drawn in bulk:
the generator's next 32-bit Mersenne Twister words (Matsumoto & Nishimura,
ACM TOMACS 8 (1998) 3-30), read in draw order from one getrandbits call and
turned into exactly the values, and the generator state, that
random.uniform, random.random and random.sample would give.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import exact, flowcore
from .evaluate import ScoredSolution, score
from .flowcore import (D_MIN, UNBOUNDED, FlowSolution, Organism, build_expanded_network,
                       check_pair_shape, compile_topology, flow_tol, seed_organism,
                       solve_min_cost_flow)

if TYPE_CHECKING:
    from .instance import Instance

_Member = tuple[Organism, ScoredSolution]


@dataclass(frozen=True)
class GAConfig:
    """Run parameters. A stop rule is required: a wall-clock time_limit
    (evolution gets 4/5, polishing the rest) and/or an iteration_limit.
    Polishing solves at most one branch-and-bound node per decode made, so
    with only an iteration_limit the whole run replays bit for bit.
    Whether the target routes is no parameter: the run's first decode decides."""

    population_size: int = 10
    crossover_probability: float = 0.5
    mutation_probability: float = 0.5
    time_limit: float | None = None
    iteration_limit: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not 0 < self.crossover_probability <= 1:  # at 0 a generation makes no child
            raise ValueError("crossover_probability must be in (0, 1]")
        if not 0 <= self.mutation_probability <= 1:
            raise ValueError("mutation_probability must be in [0, 1]")
        if self.time_limit is None and self.iteration_limit is None:
            raise ValueError("set time_limit and/or iteration_limit")
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError("time_limit must be positive and finite")
        if self.iteration_limit is not None and self.iteration_limit < 0:
            raise ValueError("iteration_limit must be nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    elapsed_s: float
    best_cost: float
    mean_cost: float
    lp_solves: int


@dataclass(frozen=True, eq=False)
class RunResult:
    best: ScoredSolution
    history: tuple[IterationRecord, ...]
    polished: ScoredSolution
    bound: float  # the seed organism's lp_cost: lp_relaxation_bound, solved once


def _mean_fixed_cost(instance: Instance) -> float:
    fixed = compile_topology(instance).fixed
    mean = float(fixed.mean()) if fixed.size else 0.0
    return max(mean, D_MIN) if mean > 0 else 1.0


def fitness(instance: Instance, organism: Organism) -> ScoredSolution:
    """Decode the organism via the exact relaxation solve and score the
    resulting flow at true cost. Lower cost means fitter."""
    return score(instance, solve_min_cost_flow(build_expanded_network(instance, organism)))


def _words(rng: random.Random, n: int) -> bytes:
    """The generator's next n 32-bit words, 4 little-endian bytes each, in
    draw order: getrandbits(32 n) puts the first word drawn lowest."""
    return rng.getrandbits(32 * n).to_bytes(4 * n, "little")


def _doubles(words: bytes, first: int = 0) -> np.ndarray:
    """random.random()'s doubles, each from a pair (a, b) of the words from
    word `first` on: (a >> 5) * 2**26 + (b >> 6), over 2**53."""
    a, b = np.frombuffer(words, dtype="<u4", offset=4 * first).reshape(-1, 2).T
    return ((a >> 5) * 67108864.0 + (b >> 6)) / 9007199254740992.0


def init_population(instance: Instance, config: GAConfig, rng: random.Random) -> list[Organism]:
    """Seed organism (divisors equal to the class capacities) plus uniformly
    random organisms with entries in [D_MIN, mean fixed cost], each entry
    rng.uniform(D_MIN, upper) bit for bit."""
    population = [seed_organism(instance)]
    length, upper = population[0].scale.size, _mean_fixed_cost(instance)
    for _ in range(config.population_size - 1):
        entries = D_MIN + (upper - D_MIN) * _doubles(_words(rng, 2 * length))
        population.append(Organism(scale=entries))
    return population


def tournament_select(population: list[_Member], target_size: int,
                      rng: random.Random) -> list[_Member]:
    """Shrink the pool by repeated binary tournaments: two distinct members
    are drawn, the less fit is dropped. Ties go to the lower index, so the
    incumbent best can never lose and always survives."""
    if not 1 <= target_size <= len(population):
        raise ValueError(f"target_size {target_size} out of range for "
                         f"population of {len(population)}")
    pool = list(population)
    while len(pool) > target_size:
        del pool[_duel(pool, rng)[1]]
    return pool


def _duel(pool: list[_Member], rng: random.Random) -> tuple[int, int]:
    """Two members drawn, as (winner, loser) indices: lower (true cost, index) wins."""
    i, j = rng.sample(range(len(pool)), 2)
    return (i, j) if (pool[i][1].true_cost, i) < (pool[j][1].true_cost, j) else (j, i)


def crossover(parent_a: Organism, parent_b: Organism, rng: random.Random) -> Organism:
    """Child takes a random interval [lo, hi) from the first parent and the
    rest from the second."""
    if parent_a.scale.shape != parent_b.scale.shape:
        raise ValueError(f"parent shapes differ: {parent_a.scale.shape} "
                         f"vs {parent_b.scale.shape}")
    length = parent_a.scale.size
    lo, hi = sorted((rng.randint(0, length), rng.randint(0, length)))
    child = parent_b.scale.copy()
    child[lo:hi] = parent_a.scale[lo:hi]
    return Organism(scale=child)


def mutate(instance: Instance, organism: Organism, rng: random.Random) -> Organism:
    """Nudge a few entries (between 1 and a tenth of the array) up or down
    by a uniform amount below one, clamped to the D_MIN floor. Unbounded
    entries are reset to the mean fixed cost before the nudge.

    The draws are those of rng.sample(range(length), count), then per
    position rng.uniform(0.0, 1.0) for the size and rng.random() < 0.5 for
    a minus sign, bit for bit, read from words drawn in bulk. The picks take
    at least one word each and the steps four, so 5 count words are drawn at
    once and later only as many as are certainly needed: one word too many
    would shift every later draw."""
    scale = organism.scale.copy()
    length = scale.size
    count = rng.randint(1, max(1, length // 10))
    # random.sample's rule: its pool branch when a list of the population is
    # smaller than a set of the picks
    pool = length <= 21 + (4 ** math.ceil(math.log(3 * count, 4)) if count > 5 else 0)
    sample, words = flowcore._kernel().sample, _words(rng, 5 * count)
    used, positions = sample(words, length, count, pool)
    while used < 0:  # the picks ran out of words
        words += _words(rng, -used)
        used, positions = sample(words, length, count, pool)
    words += _words(rng, max(0, used + 4 * count - len(words) // 4))
    size, sign = _doubles(words, used).reshape(-1, 2).T
    steps = np.where(sign < 0.5, -size, size)
    values = scale[positions]
    unbounded = np.isinf(values)
    if unbounded.any():
        values[unbounded] = _mean_fixed_cost(instance)
    scale[positions] = np.maximum(D_MIN, values + steps)
    return Organism(scale=scale)


def theorem_d(instance: Instance, optimal_flow: FlowSolution) -> Organism:
    """Divisors that make the relaxation reproduce a given optimal flow:
    unbounded on carrying pairs (fixed cost vanishes), floor elsewhere
    (fixed cost prohibitive)."""
    check_pair_shape(instance, optimal_flow.flow, "flow")
    flow = optimal_flow.flow.reshape(-1)[compile_topology(instance).pairs]
    return Organism(scale=np.where(flow > flow_tol(instance.target), UNBOUNDED, D_MIN))


def _evaluate_all(instance: Instance, organisms: list[Organism],
                  population: list[_Member]) -> list[ScoredSolution]:
    """Fitness of each organism. An organism whose divisors equal those of a
    population member or an earlier organism reuses that decode, which is
    the same by purity of fitness."""
    known = {member.key: scored for member, scored in population}
    scored = []
    for organism in organisms:
        key = organism.key
        if key not in known:
            known[key] = fitness(instance, organism)
        scored.append(known[key])
    return scored


def evolve(instance: Instance, config: GAConfig) -> RunResult:
    """Run the full search: seeded initialization, tournament-driven
    crossover and mutation under elitist selection, then exact polishing of
    the best flow, one node per decode made at most, within the time_limit.
    Raises Infeasible on the seed's decode when the target does not route.

    Randomness is consumed in a fixed documented order (initial entries,
    then per child: two parent tournaments, the crossover interval, the
    mutation coin and its draws, then the selection tournaments), so with an
    iteration_limit the whole run (best, history, polished) replays
    bit-identically per seed; only elapsed_s varies.
    The initial entries and mutation's draws are read as raw generator
    words in bulk, in the same order, so they are the per-value calls'
    values and leave the generator in the same state.
    """
    rng = random.Random(config.seed)
    start = time.perf_counter()
    time_limit = config.time_limit if config.time_limit is not None else math.inf
    iteration_limit = config.iteration_limit if config.iteration_limit is not None else math.inf

    organisms = init_population(instance, config, rng)
    scored = _evaluate_all(instance, organisms, [])
    population: list[_Member] = list(zip(organisms, scored))
    lp_solves = len(population)

    def record(iteration: int) -> IterationRecord:
        costs = [member[1].true_cost for member in population]
        return IterationRecord(
            iteration=iteration,
            elapsed_s=time.perf_counter() - start,
            best_cost=min(costs),
            mean_cost=sum(costs) / len(costs),
            lp_solves=lp_solves,
        )

    history = [record(0)]
    n_children = math.ceil(config.crossover_probability * config.population_size)
    iteration = 0
    while iteration < iteration_limit:
        if time.perf_counter() - start >= 0.8 * time_limit:
            break
        iteration += 1
        children = []
        for _ in range(n_children):
            parent_a, parent_b = (population[_duel(population, rng)[0]][0] for _ in range(2))
            child = crossover(parent_a, parent_b, rng)
            if rng.random() < config.mutation_probability:
                child = mutate(instance, child, rng)
            children.append(child)
        child_scores = _evaluate_all(instance, children, population)
        lp_solves += len(children)
        population = population + list(zip(children, child_scores))
        population = tournament_select(population, config.population_size, rng)
        history.append(record(iteration))

    best_scored = min(population, key=lambda member: member[1].true_cost)[1]
    time_left = time_limit - (time.perf_counter() - start)
    polished = exact.polish(instance, best_scored, time_left, node_limit=lp_solves)
    return RunResult(best=best_scored, history=tuple(history), polished=polished,
                     bound=scored[0].flow.lp_cost)


def write_convergence_csv(path, history) -> None:
    lines = ["iteration,elapsed_s,best_cost,mean_cost,lp_solves"]
    for rec in history:
        lines.append(f"{rec.iteration},{rec.elapsed_s:.6f},{rec.best_cost!r},"
                     f"{rec.mean_cost!r},{rec.lp_solves}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
