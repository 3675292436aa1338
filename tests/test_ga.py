import dataclasses
import hashlib
import math
import random
import signal
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfcnf import (D_MIN, UNBOUNDED, GAConfig, Infeasible, Organism, evolve, fitness, flowcore,
                    generate_random, init_population, lp_relaxation_bound, parse_instance,
                    score, solve_exact, theorem_d, verify_flow, write_convergence_csv,
                    write_solution_csv)
from mcfcnf import FlowSolution, ScoredSolution
from conftest import (FACILITY_TEXT, CountingRandom, brute_force, drawn, fig1_instance,
                      kernel_library, make_small_instance, sample_pool)


def _unoffered_instances():
    """Instances that leave (edge, class) pairs unoffered: the facility
    file's translation, and a small NA instance."""
    return [parse_instance(FACILITY_TEXT), parse_instance(
        "MCFCNF 1\nVERTICES 4 SOURCE 0 SINK 3\nTARGET 4\nCAPACITIES 2 2.0 5.0\nEDGES 4\n"
        "0 1 3.0 1.0 NA NA\n0 2 NA NA 7.0 0.5\n1 3 2.0 1.0 6.0 1.0\n2 3 NA NA 4.0 1.5\n")]


def _infinite_twin(seed: int):
    """Grid 16 K=2 with its widest class infinite: its seed divisors are
    unbounded there, which mutation resets."""
    inst = generate_random("grid", 16, 2, seed=seed, target_fraction=0.6)
    return dataclasses.replace(inst, capacities=np.append(inst.capacities[:-1], math.inf))


def _member(cost: float):
    flow = FlowSolution(flow=np.zeros((1, 1)), lp_cost=0.0)
    scored = ScoredSolution(flow=flow, used=np.zeros((1, 1), dtype=np.int8),
                            true_cost=float(cost))
    return (Organism(scale=np.full(1, 1.0)), scored)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class ScriptedRng:
    """Deterministic stand-in feeding predefined randint results to the
    reference operators."""

    def __init__(self, randints=()):
        self._randints = list(randints)

    def randint(self, a, b):
        value = self._randints.pop(0)
        assert a <= value <= b
        return value


def random_words(u: float) -> list[int]:
    """The two generator words that random.random() turns into u, a
    multiple of 2**-53 in [0, 1)."""
    x = int(u * 2**53)
    return [(x >> 26) << 5, (x & (2**26 - 1)) << 6]


def _untemper(y: int) -> int:
    """The Mersenne Twister state word whose output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xefc60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9d2c5680)
    y = x & 0xffffffff
    x = y
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


def scripted_random(words: list[int]) -> random.Random:
    """A random.Random, and so a kernel twister, whose next 32-bit outputs
    are words (then zeros)."""
    rng = random.Random()
    state = [_untemper(word) for word in words] + [0] * (624 - len(words))
    rng.setstate((3, (*state, 0), None))
    return rng


def reference_reset(instance) -> float:
    """The value an unbounded divisor is reset to: the mean offered fixed cost."""
    finite = instance.fixed_cost[instance.available]
    mean = float(finite.mean()) if finite.size else 0.0
    return max(mean, D_MIN) if mean > 0 else 1.0


def c_mutate(instance, organism: Organism, rng: random.Random) -> Organism:
    """The kernel's mutation (ga_mutate, the loop's own) of a copy of the
    organism, drawn from rng's state, which it advances."""
    genome = organism.scale.copy()
    length = genome.size
    scratch, picks = np.empty(length, np.int64), np.empty(max(2, length // 10), np.int64)
    drawn(rng, lambda twister: kernel_library().ga_mutate(
        twister, genome.ctypes.data, length, reference_reset(instance), D_MIN,
        scratch.ctypes.data, picks.ctypes.data))
    return Organism(scale=genome)


# The Python GA, the reference the kernel's generations must match bit for
# bit: today's operators and loop, with mutation drawn value by value.

def reference_duel(pool, rng: random.Random) -> tuple[int, int]:
    """Two members drawn, as (winner, loser) indices: lower (true cost, index) wins."""
    i, j = rng.sample(range(len(pool)), 2)
    return (i, j) if (pool[i][1].true_cost, i) < (pool[j][1].true_cost, j) else (j, i)


def tournament_select(population, target_size: int, rng: random.Random):
    """Shrink the pool by repeated binary tournaments: two distinct members
    are drawn, the less fit is dropped. Ties go to the lower index, so the
    incumbent best can never lose and always survives."""
    if not 1 <= target_size <= len(population):
        raise ValueError(f"target_size {target_size} out of range for "
                         f"population of {len(population)}")
    pool = list(population)
    while len(pool) > target_size:
        del pool[reference_duel(pool, rng)[1]]
    return pool


def crossover(parent_a: Organism, parent_b: Organism, rng) -> Organism:
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


def reference_mutate(instance, organism, rng):
    """Mutation as a per-position loop: between 1 and a tenth of the entries
    nudged up or down by a uniform amount below one, clamped to the D_MIN
    floor, unbounded entries reset to the mean fixed cost first."""
    scale = organism.scale.copy()
    length = scale.size
    count = rng.randint(1, max(1, length // 10))
    positions = rng.sample(range(length), count)
    reset = reference_reset(instance)
    for pos in positions:
        value = scale[pos]
        if math.isinf(value):
            value = reset
        step = rng.uniform(0.0, 1.0)
        if rng.random() < 0.5:
            step = -step
        scale[pos] = max(D_MIN, value + step)
    return Organism(scale=scale)


def reference_evaluate_all(instance, organisms, population):
    """Fitness of each organism; one whose divisors equal those of a
    population member or an earlier organism reuses that decode."""
    known = {member.scale.tobytes(): scored for member, scored in population}
    scored = []
    for organism in organisms:
        key = organism.scale.tobytes()
        if key not in known:
            known[key] = fitness(instance, organism)
        scored.append(known[key])
    return scored


def python311_sum(values: list[float]) -> float:
    """sum() of floats as CPython computes it before 3.12: 0 + the first,
    then the rest added in turn."""
    total = 0 + values[0]
    for x in values[1:]:
        total += x
    return total


def python312_sum(values: list[float]) -> float:
    """sum() of floats as CPython computes it from 3.12 on: 0 + the first,
    then Neumaier's compensated sum of the rest."""
    total, comp = 0 + values[0], 0.0
    for x in values[1:]:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def reference_evolve(instance, config: GAConfig, total=sum):
    """evolve's generations as the Python loop, to config.iteration_limit:
    (history as (iteration, best, mean, lp_solves), the final population of
    (organism, scored), the generator). total sums the costs of the mean."""
    rng = random.Random(config.seed)
    organisms = init_population(instance, config, rng)
    population = list(zip(organisms, reference_evaluate_all(instance, organisms, [])))
    lp_solves = len(population)

    def record(iteration):
        costs = [member[1].true_cost for member in population]
        return iteration, min(costs), total(costs) / len(costs), lp_solves

    history = [record(0)]
    n_children = math.ceil(config.crossover_probability * config.population_size)
    for iteration in range(1, config.iteration_limit + 1):
        children = []
        for _ in range(n_children):
            parent_a, parent_b = (population[reference_duel(population, rng)[0]][0]
                                  for _ in range(2))
            child = crossover(parent_a, parent_b, rng)
            if rng.random() < config.mutation_probability:
                child = reference_mutate(instance, child, rng)
            children.append(child)
        child_scores = reference_evaluate_all(instance, children, population)
        lp_solves += len(children)
        population = population + list(zip(children, child_scores))
        population = tournament_select(population, config.population_size, rng)
        history.append(record(iteration))
    return history, population, rng


class TestInitPopulation:
    def test_first_organism_is_capacity_seed(self, fig1):
        pop = init_population(fig1, GAConfig(iteration_limit=1), random.Random(1))
        assert (pop[0].scale == 2.0).all()

    def test_entries_within_mean_fixed_cost(self, fig1):
        # mean fixed cost of the diamond is (6+2+6+2)/4 = 4
        pop = init_population(fig1, GAConfig(iteration_limit=1), random.Random(1))
        for organism in pop[1:]:
            assert organism.scale.min() >= D_MIN
            assert organism.scale.max() <= 4.0

    def test_population_size(self, fig1):
        pop = init_population(fig1, GAConfig(population_size=7, iteration_limit=1),
                              random.Random(0))
        assert len(pop) == 7

    def test_deterministic(self, fig1):
        a = init_population(fig1, GAConfig(iteration_limit=1), random.Random(9))
        b = init_population(fig1, GAConfig(iteration_limit=1), random.Random(9))
        for x, y in zip(a, b):
            assert (x.scale == y.scale).all()

    def test_zero_fixed_costs_fall_back_to_one(self, minimal):
        inst = dataclasses.replace(minimal, fixed_cost=np.zeros((1, 1)))
        pop = init_population(inst, GAConfig(iteration_limit=1), random.Random(1))
        assert all(o.scale.max() <= 1.0 for o in pop[1:])


class TestFitness:
    def test_diamond_suboptimal_divisors(self, fig1):
        org = Organism(scale=np.array([2.0, 1.0, 2.0, 1.0]))
        assert fitness(fig1, org).true_cost == pytest.approx(21.0, abs=1e-9)

    def test_diamond_unbounded_divisors_reach_optimum(self, fig1):
        org = Organism(scale=np.full(4, UNBOUNDED))
        scored = fitness(fig1, org)
        assert scored.true_cost == pytest.approx(20.0, abs=1e-9)
        assert scored.flow.flow.ravel().tolist() == [2.0, 1.0, 2.0, 1.0]

    def test_minimal_forced_path(self, minimal):
        for value in (D_MIN, 1.0, 123.0, UNBOUNDED):
            org = Organism(scale=np.full(1, value))
            assert fitness(minimal, org).true_cost == pytest.approx(4.0, abs=1e-12)


class TestTournamentSelect:
    """The reference selection, which the kernel's loop matches
    (TestAgainstPythonLoop)."""

    def test_pair_keeps_fitter(self):
        pool = [_member(5.0), _member(9.0)]
        out = tournament_select(pool, 1, random.Random(0))
        assert out[0][1].true_cost == 5.0

    def test_best_always_survives(self):
        pool = [_member(c) for c in (7.0, 3.0, 8.0, 5.0, 6.0)]
        for seed in range(50):
            out = tournament_select(pool, 2, random.Random(seed))
            assert any(m[1].true_cost == 3.0 for m in out)

    def test_seeded_replay(self):
        pool = [_member(c) for c in (1.0, 2.0, 3.0, 4.0)]
        out = tournament_select(pool, 2, random.Random(3))
        assert [m[1].true_cost for m in out] == [1.0, 2.0]

    def test_target_size_bounds(self):
        pool = [_member(1.0), _member(2.0)]
        with pytest.raises(ValueError):
            tournament_select(pool, 0, random.Random(0))
        with pytest.raises(ValueError):
            tournament_select(pool, 3, random.Random(0))


class TestCrossover:
    """The reference crossover, which the kernel's loop matches
    (TestAgainstPythonLoop)."""

    def test_identical_parents(self):
        a = Organism(scale=np.full(4, 3.0))
        child = crossover(a, a, random.Random(0))
        assert (child.scale == a.scale).all()

    def test_full_interval_copies_first_parent(self):
        a = Organism(scale=np.array([1.0, 2.0, 3.0, 4.0]))
        b = Organism(scale=np.full(4, 9.0))
        child = crossover(a, b, ScriptedRng(randints=[0, 4]))
        assert (child.scale == a.scale).all()

    def test_unrolled_interval(self):
        a = Organism(scale=np.full(4, 1.0))
        b = Organism(scale=np.full(4, 9.0))
        child = crossover(a, b, ScriptedRng(randints=[1, 3]))
        assert child.scale.tolist() == [9.0, 1.0, 1.0, 9.0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            crossover(Organism(scale=np.ones(2)), Organism(scale=np.ones(3)), random.Random(0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 30))
    def test_child_is_an_interval_splice(self, seed, length):
        rng = random.Random(seed)
        a = Organism(scale=np.arange(1.0, length + 1.0))
        b = Organism(scale=np.arange(1.0, length + 1.0) + 100.0)
        child = crossover(a, b, rng)
        from_a = child.scale < 100.0
        idx = np.flatnonzero(from_a)
        if len(idx):
            lo, hi = idx.min(), idx.max()
            assert from_a[lo:hi + 1].all()  # contiguous block from parent a
        assert (np.where(from_a, a.scale, b.scale) == child.scale).all()


class TestMutate:
    """The kernel's mutation, the GA loop's own, on its own."""

    def test_clamped_to_floor(self, minimal):
        org = Organism(scale=np.array([0.5]))
        # a count of 1 and pick 0 (each a word's top bit 0), then a step of
        # size 0.7 and sign draw 0.3
        words = [0, 0, *random_words(0.7), *random_words(0.3)]
        out = c_mutate(minimal, org, scripted_random(words))
        assert out.scale[0] == D_MIN
        assert reference_mutate(minimal, org, scripted_random(words)).scale[0] == D_MIN

    def test_between_one_and_tenth_entries_change(self):
        # 100-entry organism: mutation touches 1..10 positions
        import mcfcnf
        inst_big = mcfcnf.Instance(
            n_vertices=2, source=0, sink=1,
            edges=tuple((0, 1) for _ in range(10)),
            capacities=np.arange(1.0, 11.0),
            fixed_cost=np.full((10, 10), 2.0),
            variable_cost=np.ones((10, 10)),
            target=1.0,
        )
        big = Organism(scale=np.full(100, 5.0))
        for seed in range(10):
            out = c_mutate(inst_big, big, random.Random(seed))
            changed = int((out.scale != big.scale).sum())
            assert 1 <= changed <= 10

    def test_deterministic(self, fig1):
        org = Organism(scale=np.full(4, 2.0))
        a = c_mutate(fig1, org, random.Random(4))
        b = c_mutate(fig1, org, random.Random(4))
        assert (a.scale == b.scale).all()

    def test_unbounded_resets_to_mean_fixed_cost(self, fig1):
        org = Organism(scale=np.full(4, UNBOUNDED))
        # a count of 1, pick 2 (the word's top 3 bits), then a step of size
        # 0.25 and sign draw 0.9
        out = c_mutate(fig1, org, scripted_random(
            [0, 2 << 29, *random_words(0.25), *random_words(0.9)]))
        # mean fixed cost 4.0, nudged up by 0.25
        assert out.scale[2] == pytest.approx(4.25)
        assert math.isinf(out.scale[0])

    def test_never_below_floor(self):
        rng = random.Random(0)
        inst = make_small_instance(rng, n_capacities=2)
        org = Organism(scale=np.full(int(inst.available.sum()), 2 * D_MIN))
        for seed in range(20):
            out = c_mutate(inst, org, random.Random(seed))
            assert out.scale.min() >= D_MIN


def _random_organism(length: int, draw: random.Random) -> Organism:
    """Unbounded entries, entries within 1 of the floor (where the clamp
    bites) and larger ones."""
    return Organism(scale=np.array([
        draw.choice([UNBOUNDED, D_MIN + draw.random(), draw.uniform(D_MIN, 50.0)])
        for _ in range(length)]))


class TestMutateAgainstReference:
    @pytest.mark.parametrize("seed", range(50))
    def test_bit_identical(self, seed):
        # same draws in the same order on both sides
        inst = generate_random("grid", 16, 3, seed=seed % 5, target_fraction=0.6)
        org = _random_organism(inst.n_edges * inst.n_capacities, random.Random(1000 + seed))
        rng, reference_rng = random.Random(seed), random.Random(seed)
        got, expected = c_mutate(inst, org, rng), reference_mutate(inst, org, reference_rng)
        assert got.scale.tobytes() == expected.scale.tobytes()
        assert rng.getstate() == reference_rng.getstate()


class TestBulkDraws:
    """The kernel's draws (its Mersenne Twister, loaded from getstate())
    must give the per-value calls' results and leave the same state, and
    init_population's words read in bulk must too."""

    def test_mutate_at_every_length(self, fig1):
        # 2619 and 3114 are the offered pairs of the bench's desk and large_a
        for length in [*range(1, 1201), 2619, 3114]:
            org = _random_organism(length, random.Random(length))
            for seed in range(3):
                rng, reference_rng = random.Random(seed), random.Random(seed)
                got = c_mutate(fig1, org, rng)
                expected = reference_mutate(fig1, org, reference_rng)
                assert got.scale.tobytes() == expected.scale.tobytes(), (length, seed)
                assert rng.getstate() == reference_rng.getstate(), (length, seed)

    @pytest.mark.parametrize("length, seed, pool, bulk", [
        (1, 2, True, 1), (1, 0, True, 2), (1, 14, True, 4),
        (22, 1, False, 1), (22, 0, False, 2), (32, 14, False, 4), (32, 92, False, 7),
    ])
    def test_mutate_on_each_path(self, fig1, length, seed, pool, bulk):
        # bulk counts the word draws of the earlier Python mutate, which read
        # 5 words a pick at once: 1 when each pick took one word, 2 when some
        # were drawn again, more when the picks took over 5 words each. The
        # cases keep covering those paths of random.sample's redraws
        count = random.Random(seed).randint(1, max(1, length // 10))
        assert sample_pool(length, count) == pool
        counting = CountingRandom(seed)
        counting.randint(1, max(1, length // 10))
        before = counting.words
        counting.sample(range(length), count)
        words = counting.words - before
        assert (words == count) == (bulk == 1) and (words > 5 * count) == (bulk > 2)
        org = _random_organism(length, random.Random(length))
        rng, reference_rng = random.Random(seed), random.Random(seed)
        got, expected = c_mutate(fig1, org, rng), reference_mutate(fig1, org, reference_rng)
        assert got.scale.tobytes() == expected.scale.tobytes()
        assert rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("spec", [("grid", 16, 3, 0), ("geometric", 40, 3, 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_init_population(self, spec, seed):
        inst = generate_random(*spec[:3], seed=spec[3], target_fraction=0.6)
        config = GAConfig(population_size=6, iteration_limit=1)
        rng, reference_rng = random.Random(seed), random.Random(seed)
        population = init_population(inst, config, rng)
        length = population[0].scale.size
        finite = inst.fixed_cost[inst.available]
        upper = max(float(finite.mean()), D_MIN)
        for organism in population[1:]:
            expected = [reference_rng.uniform(D_MIN, upper) for _ in range(length)]
            assert organism.scale.tobytes() == np.array(expected).tobytes()
        assert rng.getstate() == reference_rng.getstate()


class TestTheoremDivisors:
    def test_diamond_all_pairs_carry(self, fig1):
        flow = solve_exact(fig1, budget=10).best.flow
        org = theorem_d(fig1, flow)
        assert np.isinf(org.scale).all()

    def test_minimal(self, minimal):
        flow = solve_exact(minimal, budget=10).best.flow
        org = theorem_d(minimal, flow)
        assert math.isinf(org.scale[0])

    def test_unused_parallel_edge_floored(self):
        inst = dataclasses.replace(
            make_small_instance(random.Random(3), n_capacities=1), target=1.0)
        inst = dataclasses.replace(
            inst,
            edges=((0, inst.n_vertices - 1), (0, inst.n_vertices - 1)),
            fixed_cost=np.array([[1.0], [100.0]]),
            variable_cost=np.array([[1.0], [9.0]]),
            capacities=np.array([5.0]),
        )
        flow = solve_exact(inst, budget=10).best.flow
        org = theorem_d(inst, flow)
        assert math.isinf(org.scale[0])
        assert org.scale[1] == D_MIN

    def test_shape_mismatch(self, fig1):
        with pytest.raises(ValueError, match="shape"):
            theorem_d(fig1, FlowSolution(flow=np.zeros((1, 1)), lp_cost=0.0))

    @pytest.mark.parametrize("which", [0, 1], ids=["facility", "na"])
    def test_unoffered_pairs_decode_to_the_optimum(self, which):
        inst = _unoffered_instances()[which]
        optimum = brute_force(inst).best
        org = theorem_d(inst, optimum.flow)
        assert org.scale.shape == (inst.available.sum(),)
        assert fitness(inst, org).true_cost == pytest.approx(optimum.true_cost, rel=1e-12)


class TestConfig:
    def test_requires_a_stop_rule(self):
        with pytest.raises(ValueError, match="time_limit"):
            GAConfig()

    @pytest.mark.parametrize("kwargs", [
        {"population_size": 1, "iteration_limit": 1},
        {"crossover_probability": 1.5, "iteration_limit": 1},
        {"mutation_probability": -0.1, "iteration_limit": 1},
        {"time_limit": 0.0},
        {"iteration_limit": -1},
        {"crossover_probability": 0.0, "iteration_limit": 1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)

    @pytest.mark.parametrize("limit", [math.inf, math.nan])
    def test_rejects_time_limit_that_never_ends(self, limit):
        # an infinite limit gave evolution and polish an infinite budget
        with pytest.raises(ValueError, match="finite"):
            GAConfig(time_limit=limit, iteration_limit=5)


class TestEvolve:
    def test_diamond_reaches_optimum(self, fig1):
        result = evolve(fig1, GAConfig(iteration_limit=3, seed=1))
        assert result.polished.true_cost == pytest.approx(20.0, abs=1e-9)
        assert result.polished.true_cost <= result.best.true_cost

    def test_history_monotone_and_replayable(self):
        inst = make_small_instance(random.Random(12), n_capacities=2,
                                   max_vertices=7, max_edges=10)
        a = evolve(inst, GAConfig(iteration_limit=12, seed=5))
        b = evolve(inst, GAConfig(iteration_limit=12, seed=5))
        costs = [rec.best_cost for rec in a.history]
        assert all(x >= y for x, y in zip(costs, costs[1:]))
        assert [(r.iteration, r.best_cost, r.mean_cost, r.lp_solves) for r in a.history] \
            == [(r.iteration, r.best_cost, r.mean_cost, r.lp_solves) for r in b.history]
        assert len(a.history) == 13

    def test_every_candidate_is_a_valid_flow(self, fig1):
        # a reused decode is an earlier decode, so checking every decode
        # checks every candidate; the kernel's true cost is score's, bit for bit
        log = []
        result = evolve(fig1, GAConfig(iteration_limit=4, seed=2), decode_log=log)
        # initial population plus 5 children per iteration
        assert result.history[-1].lp_solves == 10 + 4 * 5
        assert len(log) == result.decodes > 10
        for _, flow, cost in log:
            assert verify_flow(fig1, flow) == []
            assert _bits(score(fig1, flow).true_cost) == _bits(cost)

    def test_final_cost_at_least_relaxation_bound(self, fig1):
        result = evolve(fig1, GAConfig(iteration_limit=3, seed=0))
        assert result.polished.true_cost >= lp_relaxation_bound(fig1) - 1e-9

    @pytest.mark.parametrize("spec", [("geometric", 130, 3, 7, 0.6),  # desk
                                      ("geometric", 150, 3, 81, 0.5),  # large_a
                                      ("grid", 81, 2, 6, 0.6)],  # grid81
                             ids=["desk", "large_a", "grid81"])
    def test_bound_is_the_seed_decode_of_the_relaxation(self, spec):
        # the seed organism's decode solves the slope-scaling relaxation, so
        # the run carries its bound and no caller solves it again
        kind, n, k, seed, fraction = spec
        inst = generate_random(kind, n, k, seed=seed, target_fraction=fraction)
        result = evolve(inst, GAConfig(iteration_limit=0, seed=0))
        assert np.float64(result.bound).tobytes() == np.float64(
            lp_relaxation_bound(inst)).tobytes()

    def test_vanishing_time_limit_returns_initial_best(self, fig1):
        result = evolve(fig1, GAConfig(time_limit=1e-9, seed=1))
        assert len(result.history) == 1
        assert result.polished.true_cost <= result.best.true_cost

    def test_infeasible_instance_raises(self, minimal):
        bad = dataclasses.replace(minimal, target=10.0)
        with pytest.raises(Infeasible):
            evolve(bad, GAConfig(iteration_limit=1))

    def test_duplicate_children_decoded_once(self, fig1):
        log = []
        result = evolve(fig1, GAConfig(iteration_limit=8, seed=6, mutation_probability=0.1),
                        decode_log=log)
        assert result.history[-1].lp_solves == 10 + 8 * 5
        assert len(log) == result.decodes < result.history[-1].lp_solves

    @pytest.mark.parametrize("which", [0, 1], ids=["facility", "na"])
    def test_one_divisor_per_offered_pair(self, which):
        # every organism decoded: the seed, the random ones and every new
        # child; a reused child's divisors are those of one decoded
        inst = _unoffered_instances()[which]
        offered = int(inst.available.sum())
        assert offered < inst.available.size
        log = []
        result = evolve(inst, GAConfig(iteration_limit=20, seed=0), decode_log=log)
        assert {divisors.shape for divisors, _, _ in log} == {(offered,)}
        assert result.history[-1].lp_solves == 10 + 20 * 5
        pop = init_population(inst, GAConfig(iteration_limit=1), random.Random(0))
        assert {org.scale.shape for org in pop} == {(offered,)}

    @pytest.mark.parametrize("seed, best_cost, digest", [
        (0, 429.58605088170725, "0277faf8c568ec089d6c849289279e3fa20e19676383247d451a2353085cc81e"),
        (1, 442.8836495964807, "1906a35ad6d4d71cd4bcc9b2567a81fdf2fecea27a37422cc9365e2d904736b6"),
        (2, 438.38652625976476, "f9475a9e3b733aa116f38f62b0574605558e57a11303a9d617f9b910f5abb240"),
    ])
    def test_replay_pinned(self, seed, best_cost, digest):
        # the GA's RNG stream, bit for bit: initial entries, tournaments,
        # crossover intervals and mutation draws all feed the history
        inst = generate_random("geometric", 30, 3, seed=1)
        result = evolve(inst, GAConfig(iteration_limit=100, seed=seed))
        history = [(rec.best_cost, rec.mean_cost, rec.lp_solves) for rec in result.history]
        assert result.best.true_cost == best_cost
        assert hashlib.sha256(repr(history).encode()).hexdigest() == digest

    def test_decodes_build_no_dense_flow(self, monkeypatch, tmp_path):
        # each decode is scored from its end state: the dense flow matrix is
        # built for polish's check of its warm start and for the output only
        inst = generate_random("geometric", 30, 3, seed=1, target_fraction=0.6)
        built, dense = [], FlowSolution.flow.fget

        def spy(flow):
            if flow._flow is None:
                built.append(flow)
            return dense(flow)

        monkeypatch.setattr(FlowSolution, "flow", property(spy))
        log = []
        result = evolve(inst, GAConfig(iteration_limit=100, seed=0), decode_log=log)
        assert built == [result.best.flow]
        write_solution_csv(tmp_path / "sol.csv", result.polished)
        assert len(built) <= 2 and result.history[-1].lp_solves == 510
        assert len(log) == result.decodes


#: (instance, generations) the kernel's generations are checked on against
#: the Python loop: desk, large_a and grid81 of the bench, the diamond, the
#: two with unoffered pairs and one with an infinite class.
_LOOP_CASES = {
    "desk": (lambda: generate_random("geometric", 130, 3, seed=7, target_fraction=0.6), 80),
    "large_a": (lambda: generate_random("geometric", 150, 3, seed=81, target_fraction=0.5), 50),
    "grid81": (lambda: generate_random("grid", 81, 2, seed=6, target_fraction=0.6), 80),
    "fig1": (fig1_instance, 150),
    "facility": (lambda: _unoffered_instances()[0], 150),
    "na": (lambda: _unoffered_instances()[1], 150),
    "infinite": (lambda: _infinite_twin(3), 100),
}


def _run_with_kernel(instance, config, monkeypatch):
    """evolve, and the generator and final population the kernel's loop
    left: (result, rng, survivors' divisors)."""
    kernel = flowcore._kernel()
    real, seen = kernel.evolve, {}

    def spy(topology, population, costs, rng, *args, **kwargs):
        seen["survivors"] = real(topology, population, costs, rng, *args, **kwargs)
        seen["rng"] = rng
        return seen["survivors"]

    monkeypatch.setattr(kernel, "evolve", spy)
    result = evolve(instance, config)
    return result, seen["rng"], seen["survivors"][0]


class TestAgainstPythonLoop:
    """The kernel's generations against the Python loop: every history
    value's bits, the final population, the best cost and the generator's
    end state. At population 20 the selection pool of 30 takes
    random.sample's set branch; an infinite seed divisor is reset."""

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    @pytest.mark.parametrize("fields", [
        {}, {"population_size": 2}, {"population_size": 20}, {"crossover_probability": 1.0},
        {"mutation_probability": 0.0}, {"mutation_probability": 1.0},
    ], ids=["default", "population-2", "population-20", "crossover-1", "mutation-0",
            "mutation-1"])
    def test_bit_identical(self, case, fields, monkeypatch):
        make, generations = _LOOP_CASES[case]
        inst = make()
        config = GAConfig(iteration_limit=generations, seed=3, **fields)
        history, population, reference_rng = reference_evolve(inst, config)
        result, rng, survivors = _run_with_kernel(inst, config, monkeypatch)
        assert [(r.iteration, _bits(r.best_cost), _bits(r.mean_cost), r.lp_solves)
                for r in result.history] == [(i, _bits(best), _bits(mean), solves)
                                            for i, best, mean, solves in history]
        assert [row.tobytes() for row in survivors] == \
            [org.scale.tobytes() for org, _ in population]
        assert _bits(result.best.true_cost) == _bits(min(m[1].true_cost for m in population))
        assert rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("compensated", [False, True])
    def test_mean_sums_as_the_interpreter(self, compensated, monkeypatch):
        # the history's mean is sum(costs) / len(costs), and sum() adds floats
        # with Neumaier's compensation from Python 3.12 on: each rule in turn
        inst, config = _LOOP_CASES["desk"][0](), GAConfig(iteration_limit=60, seed=5,
                                                           population_size=20)
        rules = [python311_sum, python312_sum]
        monkeypatch.setattr(flowcore, "_NEUMAIER_SUM", compensated)
        history = reference_evolve(inst, config, rules[compensated])[0]
        other = reference_evolve(inst, config, rules[not compensated])[0]
        assert [h[2] for h in history] != [h[2] for h in other]  # the rules differ here
        result = evolve(inst, config)
        assert [_bits(r.mean_cost) for r in result.history[1:]] == \
            [_bits(mean) for _, _, mean, _ in history[1:]]

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="sum() compensates from 3.12 on")
    def test_python312_sum_is_sum(self):
        draw = random.Random(0)
        for n in range(1, 40):
            values = [draw.uniform(0.0, 1000.0) for _ in range(n)]
            assert _bits(python312_sum(values)) == _bits(sum(values))

    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() compensates from 3.12 on")
    def test_python311_sum_is_sum(self):
        draw = random.Random(0)
        for n in range(1, 40):
            values = [draw.uniform(0.0, 1000.0) for _ in range(n)]
            assert _bits(python311_sum(values)) == _bits(sum(values))

    @pytest.mark.parametrize("case", ["desk", "large_a", "infinite"])
    def test_true_cost_is_score(self, case):
        # over a hundred arcs the sums split as numpy's pairwise rule does
        inst = _LOOP_CASES[case][0]()
        log = []
        evolve(inst, GAConfig(iteration_limit=10, seed=1, mutation_probability=1.0),
               decode_log=log)
        assert len(log) > 10
        for _, flow, cost in log:
            assert _bits(score(inst, flow).true_cost) == _bits(cost)


class TestPause:
    """The loop returns to Python every few milliseconds and whenever its
    history buffer fills; where it pauses changes nothing."""

    @pytest.mark.parametrize("name, value", [("_HISTORY_ROWS", 1), ("_GA_SLICE", 0.0)],
                             ids=["every-generation", "every-child"])
    def test_pauses_change_nothing(self, name, value, monkeypatch):
        inst = generate_random("geometric", 130, 3, seed=7, target_fraction=0.6)
        config = GAConfig(iteration_limit=40, seed=0)
        expected = evolve(inst, config)
        kernel = flowcore._kernel()
        real, calls = kernel.evolve, []

        def counted(*args):
            *head, record, log = args
            return real(*head, lambda rows: calls.append(len(rows)) or record(rows), log)

        monkeypatch.setattr(kernel, "evolve", counted)
        monkeypatch.setattr(flowcore, name, value)
        got = evolve(inst, config)
        assert len(calls) > 40 and max(calls) == 1
        assert [(r.iteration, r.best_cost, r.mean_cost, r.lp_solves) for r in got.history] == \
            [(r.iteration, r.best_cost, r.mean_cost, r.lp_solves) for r in expected.history]
        assert (got.best.true_cost, got.polished.true_cost, got.decodes) == \
            (expected.best.true_cost, expected.polished.true_cost, expected.decodes)

    def test_stops_at_four_fifths_of_the_time_limit(self):
        # checked before each generation on the perf_counter clock, from
        # evolve's start: the last generation is the first to end past it
        inst = generate_random("geometric", 150, 3, seed=81, target_fraction=0.5)
        history = evolve(inst, GAConfig(time_limit=1.0)).history
        assert history[-2].elapsed_s < 0.8 <= history[-1].elapsed_s + 0.01
        assert history[-1].elapsed_s < 0.85

    def test_signal_handler_runs_during_the_loop(self):
        # a timer's handler, like Ctrl-C's, runs only between kernel calls
        inst = generate_random("geometric", 150, 3, seed=81, target_fraction=0.5)

        class Alarm(Exception):
            pass

        def ring(signum, frame):
            raise Alarm

        previous = signal.signal(signal.SIGALRM, ring)
        started = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(Alarm):
                evolve(inst, GAConfig(time_limit=30))
            took = time.perf_counter() - started
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert 0.5 <= took < 0.75


class TestPolishBudget:
    """Polish solves at most one branch-and-bound node per decode of the
    evolution and stops at the time_limit, so no clock moves an
    --iterations run."""

    @pytest.fixture
    def run(self, monkeypatch):
        """evolve on desk (bench's instance), as (result, polish's node solves)."""
        import mcfcnf.exact
        inst = generate_random("geometric", 130, 3, seed=7, target_fraction=0.6)
        solves, real = [], mcfcnf.exact.polish
        monkeypatch.setattr(mcfcnf.exact, "polish",
                            lambda *args, **kwargs: real(*args, **kwargs, solve_log=solves))

        def run(config):
            solves.clear()
            return evolve(inst, config), len(solves)
        return run

    def test_frozen_clock_changes_nothing(self, run, monkeypatch):
        result, solves = run(GAConfig(iteration_limit=100, seed=0))
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        frozen, frozen_solves = run(GAConfig(iteration_limit=100, seed=0))
        assert frozen.polished.true_cost == result.polished.true_cost
        assert frozen_solves == solves > 0

    @pytest.mark.parametrize("seed", [0, 6, 1009])
    def test_desk_polish_pinned(self, run, seed):
        result, solves = run(GAConfig(iteration_limit=100, seed=seed))
        assert result.polished.true_cost == 714.0807316027732
        assert 0 < solves <= result.history[-1].lp_solves + 1
        assert result.decodes == {0: 454, 6: 461, 1009: 476}[seed]

    def test_no_search_past_the_time_limit(self, run):
        # the ten initial decodes alone outlast the limit
        result, solves = run(GAConfig(time_limit=1e-9, seed=0))
        assert result.polished is result.best and solves == 0


def test_convergence_csv(tmp_path, fig1):
    result = evolve(fig1, GAConfig(iteration_limit=2, seed=1))
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, result.history)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,elapsed_s,best_cost,mean_cost,lp_solves"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
