"""End-to-end acceptance suite: one test per shipping criterion.

Each test prints a `acceptance N (<name>): PASS|FAIL` line straight to the
terminal (bypassing capture) so a plain pytest run shows the scoreboard.
The last criterion runs both solvers under two-minute budgets and dominates
the suite's wall time; expect roughly ten minutes total.
"""
import random
import statistics
import time

import numpy as np
import pytest

from mcfcnf import (D_MIN, UNBOUNDED, GAConfig, Organism,
                    build_expanded_network, compile_topology, evolve, fitness, generate_random,
                    init_population, lp_relaxation_bound, polish, save_instance,
                    score, solve_exact, solve_min_cost_flow, theorem_d,
                    verify_flow)
from mcfcnf.cli import main
from conftest import (brute_force, fig1_instance, integral_flow_min_cost,
                      make_small_instance)


def _report(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'}{suffix}",
              flush=True)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# 1. counterexample regression on the reconstructed diamond
# ---------------------------------------------------------------------------

def test_criterion_1_diamond_regression(capsys):
    started = time.perf_counter()
    fig1 = fig1_instance()
    failures = []

    exact_result = solve_exact(fig1, budget=10)
    if abs(exact_result.best.true_cost - 20.0) > 1e-9 or not exact_result.proven_optimal:
        failures.append(f"exact optimum {exact_result.best.true_cost} != 20")

    flow_values = Organism(scale=np.array([2.0, 1.0, 2.0, 1.0]))
    decoded = solve_min_cost_flow(build_expanded_network(fig1, flow_values))
    scored = score(fig1, decoded)
    if abs(scored.true_cost - 21.0) > 1e-9:
        failures.append(f"divisors=(2,1,2,1) true cost {scored.true_cost} != 21")
    if not np.allclose(decoded.flow.ravel(), [1.0, 2.0, 1.0, 2.0], atol=1e-9):
        failures.append(f"relaxation routed {decoded.flow.ravel().tolist()}, "
                        "expected 1 unit on the outer path and 2 on the inner")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, limit 1s")
    _report(capsys, 1, "diamond counterexample regression", not failures,
            f"{elapsed:.3f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 2. constructive divisors reproduce the exact optimum
# ---------------------------------------------------------------------------

def test_criterion_2_constructive_divisors(capsys):
    started = time.perf_counter()
    rng = random.Random(21)
    failures = []
    for i in range(200):
        n_caps = rng.choice((1, 2, 3))
        instance = make_small_instance(
            rng, max_vertices=10, max_edges=min(15, 16 // n_caps),
            n_capacities=n_caps, cap_choices=(1, 2, 3, 4, 5),
            fixed_range=(1, 12))
        reference = brute_force(instance)
        constructed = fitness(instance, theorem_d(instance, reference.best.flow))
        if _rel(constructed.true_cost, reference.best.true_cost) > 1e-6:
            failures.append(f"instance {i}: constructed {constructed.true_cost} "
                            f"vs optimum {reference.best.true_cost}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    _report(capsys, 2, "constructive divisors suite", not failures,
            f"200 instances, {elapsed:.1f}s")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 3. relaxation solver vs exhaustive integral enumeration
# ---------------------------------------------------------------------------

def test_criterion_3_flow_solver_oracle(capsys):
    started = time.perf_counter()
    rng = random.Random(33)
    failures = []
    for i in range(500):
        n_caps = rng.choice((1, 2))
        caps = (1, 2, 3, 4) if n_caps == 1 else rng.choice(((1, 2), (1, 3)))
        instance = make_small_instance(
            rng, max_vertices=5, max_edges=6, n_capacities=n_caps,
            cap_choices=caps, target_cap=4)
        shape = (instance.n_edges, instance.n_capacities)
        entries = np.array([rng.uniform(D_MIN, 6.0) for _ in range(shape[0] * shape[1])])
        scale = entries.reshape(shape)
        unbounded = np.array([rng.random() < 0.1 for _ in range(scale.size)]).reshape(shape)
        dense = np.where(unbounded, UNBOUNDED, scale)
        organism = Organism(scale=dense.reshape(-1)[compile_topology(instance).pairs])
        unit_cost = np.where(
            instance.available,
            instance.fixed_cost / dense + instance.variable_cost, 0.0)
        expected = integral_flow_min_cost(instance, unit_cost)
        solved = solve_min_cost_flow(build_expanded_network(instance, organism))
        if expected is None or abs(solved.lp_cost - expected) > 1e-9:
            failures.append(f"instance {i}: solver {solved.lp_cost} vs enumeration {expected}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, limit 30s")
    _report(capsys, 3, "min-cost-flow oracle equivalence", not failures,
            f"500 instances, {elapsed:.1f}s")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 4. branch-and-bound equals brute force
# ---------------------------------------------------------------------------

def test_criterion_4_branch_and_bound(capsys):
    started = time.perf_counter()
    rng = random.Random(44)
    failures = []
    for i in range(200):
        n_caps = rng.choice((1, 2))
        instance = make_small_instance(
            rng, max_vertices=8, max_edges=16 // n_caps, n_capacities=n_caps,
            cap_choices=(1, 2, 3, 4))
        reference = brute_force(instance)
        result = solve_exact(instance, budget=30)
        if not result.proven_optimal:
            failures.append(f"instance {i}: not proven optimal")
        elif _rel(result.best.true_cost, reference.best.true_cost) > 1e-9:
            failures.append(f"instance {i}: {result.best.true_cost} "
                            f"vs brute force {reference.best.true_cost}")
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, limit 120s")
    _report(capsys, 4, "branch-and-bound correctness", not failures,
            f"200 instances, {elapsed:.1f}s")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 5 + 6. GA invariants and polish behavior on a shared batch of runs
# ---------------------------------------------------------------------------

GA_SUITE_SPECS = [
    ("grid", 36, 1, 101), ("grid", 25, 2, 102), ("grid", 36, 2, 103),
    ("grid", 49, 2, 104), ("grid", 64, 2, 105), ("grid", 81, 1, 106),
    ("grid", 48, 3, 107), ("grid", 100, 1, 108), ("grid", 60, 2, 109),
    ("grid", 36, 3, 110),
    ("geometric", 30, 2, 111), ("geometric", 40, 2, 112), ("geometric", 50, 2, 113),
    ("geometric", 35, 3, 114), ("geometric", 45, 2, 115), ("geometric", 35, 2, 116),
    ("geometric", 40, 3, 117), ("geometric", 60, 1, 118), ("geometric", 30, 3, 119),
    ("geometric", 50, 1, 120),
]


@pytest.fixture(scope="module")
def ga_suite():
    """Twenty seeded instances (~100-500 pairs each), each evolved twice with
    the same seed at iteration-stop 50. Candidate flows from the first run
    are verified against the constraints, every decode from its decode_log;
    a reused decode is an earlier decode, so every candidate is verified."""
    started = time.perf_counter()
    runs = []
    for kind, n, n_caps, seed in GA_SUITE_SPECS:
        instance = generate_random(kind, n, n_caps, seed=seed, target_fraction=0.6)
        pairs = int(instance.available.sum())
        assert 100 <= pairs <= 500, f"{kind} n={n} K={n_caps}: {pairs} pairs"

        config, decodes = GAConfig(iteration_limit=50, seed=seed), []
        first = evolve(instance, config, decode_log=decodes)
        second = evolve(instance, config)
        assert len(decodes) == first.decodes
        bad_flows = [problems[0] for _, flow, _ in decodes
                     if (problems := verify_flow(instance, flow))]

        seed_org = init_population(instance, config, random.Random(seed))[0]
        runs.append({
            "spec": (kind, n, n_caps, seed),
            "pairs": pairs,
            "instance": instance,
            "first": first,
            "second": second,
            "evaluated": first.history[-1].lp_solves,
            "bad_flows": bad_flows,
            "seed_fitness": fitness(instance, seed_org).true_cost,
            "bound": lp_relaxation_bound(instance),
        })
    return {"runs": runs, "elapsed": time.perf_counter() - started}


def test_criterion_5_ga_invariants(capsys, ga_suite):
    failures = []
    for run in ga_suite["runs"]:
        spec = run["spec"]
        history = run["first"].history
        costs = [rec.best_cost for rec in history]
        if any(late > early for early, late in zip(costs, costs[1:])):
            failures.append(f"{spec}: best-fitness history increased")
        if run["bad_flows"]:
            failures.append(f"{spec}: invalid candidate flow: {run['bad_flows'][0]}")
        if run["first"].best.true_cost > run["seed_fitness"]:
            failures.append(f"{spec}: final {run['first'].best.true_cost} worse than "
                            f"capacity-seed fitness {run['seed_fitness']}")
        if run["first"].best.true_cost < run["bound"] - 1e-9:
            failures.append(f"{spec}: final cost below relaxation bound")
        replay_a = [(r.iteration, r.best_cost, r.mean_cost, r.lp_solves)
                    for r in run["first"].history]
        replay_b = [(r.iteration, r.best_cost, r.mean_cost, r.lp_solves)
                    for r in run["second"].history]
        if replay_a != replay_b:
            failures.append(f"{spec}: repeated seed produced a different history")
        if len(history) != 51:
            failures.append(f"{spec}: expected 51 history records, got {len(history)}")
    elapsed = ga_suite["elapsed"]
    if elapsed >= 300.0:
        failures.append(f"suite took {elapsed:.1f}s, limit 300s")
    total_evals = sum(run["evaluated"] for run in ga_suite["runs"])
    _report(capsys, 5, "GA invariant suite", not failures,
            f"20 instances x2 runs, {total_evals} candidate flows, {elapsed:.1f}s")
    assert not failures, failures[:5]


def test_criterion_6_polish_no_regression(capsys, ga_suite):
    failures = []
    for run in ga_suite["runs"]:
        for result in (run["first"], run["second"]):
            if result.polished.true_cost > result.best.true_cost:
                failures.append(f"{run['spec']}: polish regressed "
                                f"{result.best.true_cost} -> {result.polished.true_cost}")

    fig1 = fig1_instance()
    suboptimal = Organism(scale=np.array([2.0, 1.0, 2.0, 1.0]))
    warm = score(fig1, solve_min_cost_flow(build_expanded_network(fig1, suboptimal)))
    started = time.perf_counter()
    improved = polish(fig1, warm, budget=1.0)
    elapsed = time.perf_counter() - started
    if abs(warm.true_cost - 21.0) > 1e-9 or abs(improved.true_cost - 20.0) > 1e-9:
        failures.append(f"diamond polish {warm.true_cost} -> {improved.true_cost}, "
                        "expected 21 -> 20")
    if elapsed > 1.0:
        failures.append(f"diamond polish took {elapsed:.3f}s, budget 1s")
    improvements = sum(
        1 for run in ga_suite["runs"]
        if run["first"].polished.true_cost < run["first"].best.true_cost - 1e-9)
    _report(capsys, 6, "polish no-regression and local optimality", not failures,
            f"polish improved {improvements}/20 first runs")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 7. desk-scale performance
# ---------------------------------------------------------------------------

def test_criterion_7_performance(capsys):
    instance = generate_random("geometric", 130, 3, seed=7, target_fraction=0.6)
    pairs = int(instance.available.sum())
    assert pairs >= 2000, f"expected >= 2000 expanded arcs, got {pairs}"

    population = init_population(instance, GAConfig(iteration_limit=1, seed=0),
                                 random.Random(0))
    durations = []
    for i in range(20):
        started = time.perf_counter()
        fitness(instance, population[i % len(population)])
        durations.append(time.perf_counter() - started)
    median_ms = statistics.median(durations) * 1000.0

    started = time.perf_counter()
    evolve(instance, GAConfig(population_size=10, iteration_limit=50, seed=1))
    run_seconds = time.perf_counter() - started

    failures = []
    if median_ms >= 250.0:
        failures.append(f"median fitness evaluation {median_ms:.1f}ms, limit 250ms")
    if run_seconds >= 300.0:
        failures.append(f"full GA run took {run_seconds:.1f}s, limit 300s")
    _report(capsys, 7, "desk-scale performance", not failures,
            f"{pairs} arcs, fitness median {median_ms:.1f}ms, run {run_seconds:.1f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 8. comparison harness under equal two-minute budgets
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_compare_harness(capsys, tmp_path):
    # large-scale published results need proprietary data and a commercial
    # solver; this substitutes generated instances and checks consistency,
    # reporting (not asserting) the GA-vs-exact ratio
    for name, kind, n, n_caps, seed in (
        ("large_a", "geometric", 150, 3, 81),
        ("large_b", "geometric", 110, 2, 82),
    ):
        instance = generate_random(kind, n, n_caps, seed=seed, target_fraction=0.5)
        pairs = int(instance.available.sum())
        assert 1000 <= pairs <= 5000, f"{name}: {pairs} pairs"
        save_instance(instance, tmp_path / f"{name}.mcfcnf")

    report = tmp_path / "report.csv"
    code = main(["compare", "--instances", str(tmp_path / "large_*.mcfcnf"),
                 "--budget", "120", "--repeats", "1", "--seed", "0",
                 "-o", str(report)])
    lines = report.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]

    failures = []
    if code != 0:
        failures.append(f"compare exited {code}")
    if len(rows) != 2:
        failures.append(f"expected 2 report rows, got {len(rows)}")
    ratios = []
    for row in rows:
        ga_cost = float(row["ga_cost_mean"])
        bound = float(row["lower_bound"])
        if ga_cost < bound - 1e-6:
            failures.append(f"{row['instance']}: GA {ga_cost} below bound {bound}")
        ratios.append(f"{row['instance']}: GA/exact={float(row['cost_ratio']):.4f} "
                      f"(exact proven={row['exact_proven']})")
    _report(capsys, 8, "compare harness consistency", not failures,
            "; ".join(ratios))
    assert not failures, failures
