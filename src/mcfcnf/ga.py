"""Genetic search over fixed-cost divisor arrays, one per offered pair (arc).

Each organism decodes to a flow by solving the scaled relaxation exactly, so
every candidate is a valid flow by construction and no repair step exists.
Fitness is the decoded flow's true cost (lower is fitter). Selection is
binary tournament with the incumbent best always retained; crossover splices
a random interval from one parent into the other; mutation nudges a few
entries by at most one, clamped to the D_MIN floor.

The initial population is drawn and decoded here; its entries are read in
bulk from one getrandbits call, with exactly the values and the generator
state of per-entry random.uniform calls. The generations run in the C kernel
(_ssp.c's ga_run). There CPython's Mersenne Twister (Matsumoto & Nishimura,
ACM TOMACS 8 (1998) 3-30), loaded from getstate(), is stepped in C and gives
every draw random.sample, randint and random would give, and each child is
decoded and priced as fitness would. tests/test_ga.py keeps the Python loop
and operators, which the kernel matches bit for bit.
"""
from __future__ import annotations

import math
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import exact, flowcore
from .evaluate import ScoredSolution, score
from .flowcore import (D_MIN, UNBOUNDED, FlowSolution, Organism, build_expanded_network,
                       check_pair_shape, compile_topology, flow_tol, seed_organism,
                       solve_min_cost_flow)

if TYPE_CHECKING:
    from .instance import Instance


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


class History(Sequence):
    """A run's IterationRecords, one per generation from 0, kept as one
    float64 row (elapsed_s, best_cost, mean_cost, lp_solves) each and made
    when read: a run makes thousands of generations a second."""

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        elapsed, best, mean, lp_solves = self._rows[index].tolist()
        return IterationRecord(range(len(self))[index], elapsed, best, mean, int(lp_solves))


@dataclass(frozen=True, eq=False)
class RunResult:
    best: ScoredSolution
    history: History
    polished: ScoredSolution
    bound: float  # the seed organism's lp_cost: lp_relaxation_bound, solved once
    decodes: int  # the kernel solves of the search: the initial population's, then new children's


def _mean_fixed_cost(instance: Instance) -> float:
    fixed = compile_topology(instance).fixed
    mean = float(fixed.mean()) if fixed.size else 0.0
    return max(mean, D_MIN) if mean > 0 else 1.0


def fitness(instance: Instance, organism: Organism) -> ScoredSolution:
    """Decode the organism via the exact relaxation solve and score the
    resulting flow at true cost. Lower cost means fitter."""
    return score(instance, solve_min_cost_flow(build_expanded_network(instance, organism)))


def _doubles(rng: random.Random, n: int) -> np.ndarray:
    """The next n random.random() doubles, bit for bit, from one getrandbits
    call: its 2n 32-bit words in draw order (the first drawn lowest), each
    pair (a, b) giving ((a >> 5) * 2**26 + (b >> 6)) / 2**53."""
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    a, b = words.reshape(-1, 2).T
    return ((a >> 5) * 67108864.0 + (b >> 6)) / 9007199254740992.0


def init_population(instance: Instance, config: GAConfig, rng: random.Random) -> list[Organism]:
    """Seed organism (divisors equal to the class capacities) plus uniformly
    random organisms with entries in [D_MIN, mean fixed cost], each entry
    rng.uniform(D_MIN, upper) bit for bit."""
    population = [seed_organism(instance)]
    length, upper = population[0].scale.size, _mean_fixed_cost(instance)
    for _ in range(config.population_size - 1):
        entries = D_MIN + (upper - D_MIN) * _doubles(rng, length)
        population.append(Organism(scale=entries))
    return population


def theorem_d(instance: Instance, optimal_flow: FlowSolution) -> Organism:
    """Divisors that make the relaxation reproduce a given optimal flow:
    unbounded on carrying pairs (fixed cost vanishes), floor elsewhere
    (fixed cost prohibitive)."""
    check_pair_shape(instance, optimal_flow.flow, "flow")
    flow = optimal_flow.flow.reshape(-1)[compile_topology(instance).pairs]
    return Organism(scale=np.where(flow > flow_tol(instance.target), UNBOUNDED, D_MIN))


def evolve(instance: Instance, config: GAConfig, decode_log: list | None = None) -> RunResult:
    """Run the full search: seeded initialization, tournament-driven
    crossover and mutation under elitist selection, then exact polishing of
    the best flow, one node per decode made at most, within the time_limit.
    Raises Infeasible on the seed's decode when the target does not route.

    Randomness is consumed in a fixed documented order (initial entries,
    then per child: two parent tournaments, the crossover interval, the
    mutation coin and its draws, then the selection tournaments), so with an
    iteration_limit the whole run (best, history, polished) replays
    bit-identically per seed; only elapsed_s varies. The initial population
    is decoded here, by fitness; the generations run in the C kernel
    (flowcore.load_kernel's evolve), on CPython's generator stepped in C.
    With decode_log a list, appends (divisors, solution, true cost) per
    decode, the initial ones first, as solve_exact's solve_log does.
    """
    rng = random.Random(config.seed)
    start = time.perf_counter()
    time_limit = config.time_limit if config.time_limit is not None else math.inf
    iteration_limit = config.iteration_limit if config.iteration_limit is not None else math.inf

    organisms = init_population(instance, config, rng)
    scored = [fitness(instance, organism) for organism in organisms]
    if decode_log is not None:
        decode_log.extend((o.scale, s.flow, s.true_cost) for o, s in zip(organisms, scored))
    costs = [member.true_cost for member in scored]
    rows = [np.array([[time.perf_counter() - start, min(costs), sum(costs) / len(costs),
                       len(costs)]])]
    n_children = math.ceil(config.crossover_probability * config.population_size)
    survivors, costs, decodes = flowcore._kernel().evolve(
        compile_topology(instance), np.array([o.scale for o in organisms]), costs, rng,
        (n_children, config.mutation_probability, _mean_fixed_cost(instance), D_MIN),
        (start, 0.8 * time_limit, iteration_limit), rows.append, decode_log)
    history = History(np.concatenate(rows))
    best = fitness(instance, Organism(scale=survivors[int(np.argmin(costs))]))
    time_left = time_limit - (time.perf_counter() - start)
    polished = exact.polish(instance, best, time_left, node_limit=history[-1].lp_solves)
    return RunResult(best=best, history=history, polished=polished,
                     bound=scored[0].flow.lp_cost, decodes=len(organisms) + decodes)


def write_convergence_csv(path, history) -> None:
    """One row per record, written as it is formatted: a long run's history
    is not held twice."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("iteration,elapsed_s,best_cost,mean_cost,lp_solves\n")
        out.writelines(f"{rec.iteration},{rec.elapsed_s:.6f},{rec.best_cost!r},"
                       f"{rec.mean_cost!r},{rec.lp_solves}\n" for rec in history)
