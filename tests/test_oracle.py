"""HiGHS (scipy.optimize.milp) as an independent oracle at 100-3114 pairs.

The model has one continuous flow f and one use indicator y per offered
(edge, class) pair, f <= c_k * y (big M equal to the class capacity), and
flow conservation with the target leaving the source. Its optimum is the
true fixed-charge optimum; with y relaxed to [0, 1] it is the LP relaxation,
which the slope-scaled bound must equal (z = f / c at the optimum).
"""
import random
import time

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_array  # noqa: E402
from scipy.sparse.csgraph import maximum_flow  # noqa: E402

from mcfcnf import (GAP_DEFAULT, GAConfig, compile_topology, evolve,  # noqa: E402
                    generate_random, lp_relaxation_bound, max_throughput, solve_exact,
                    verify_flow)
from mcfcnf.flowcore import max_flow  # noqa: E402
from conftest import make_small_instance  # noqa: E402

#: (kind, vertices, classes, seed): 140, 204, 330, 468 and 570 offered pairs,
#: each proven by branch-and-bound within a few seconds.
SPECS = [
    ("grid", 25, 2, 1),
    ("grid", 36, 2, 2),
    ("geometric", 30, 3, 1),
    ("grid", 81, 2, 6),
    ("geometric", 40, 3, 2),
]


def highs_optimum(instance, relaxed: bool) -> float:
    """Optimum of the big-M model, or of its LP relaxation."""
    edge_of, cap_of = np.nonzero(instance.available)
    n = len(edge_of)
    caps = instance.capacities[cap_of]
    tails = np.array([instance.edges[e][0] for e in edge_of])
    heads = np.array([instance.edges[e][1] for e in edge_of])
    pairs = np.arange(n)
    cost = np.concatenate([instance.variable_cost[edge_of, cap_of],
                           instance.fixed_cost[edge_of, cap_of]])
    link = coo_array((np.concatenate([np.ones(n), -caps]),
                      (np.concatenate([pairs, pairs]), np.concatenate([pairs, pairs + n]))),
                     shape=(n, 2 * n))
    balance = coo_array((np.concatenate([np.ones(n), -np.ones(n)]),
                         (np.concatenate([tails, heads]), np.concatenate([pairs, pairs]))),
                        shape=(instance.n_vertices, 2 * n))
    supply = np.zeros(instance.n_vertices)
    supply[instance.source] += instance.target
    supply[instance.sink] -= instance.target
    integrality = np.zeros(2 * n)
    if not relaxed:
        integrality[n:] = 1
    result = milp(cost, integrality=integrality,
                  bounds=Bounds(np.zeros(2 * n), np.concatenate([caps, np.ones(n)])),
                  constraints=[LinearConstraint(link, -np.inf, 0.0),
                               LinearConstraint(balance, supply, supply)],
                  options={"mip_rel_gap": 1e-9, "time_limit": 120.0})
    assert result.status == 0, result.message
    return float(result.fun)


@pytest.mark.parametrize("kind, n, classes, seed", SPECS)
def test_solvers_agree_with_highs(kind, n, classes, seed):
    inst = generate_random(kind, n, classes, seed=seed, target_fraction=0.6)
    assert 100 <= int(inst.available.sum()) <= 600
    optimum = highs_optimum(inst, relaxed=False)
    tol = GAP_DEFAULT * max(1.0, optimum)

    assert lp_relaxation_bound(inst) == pytest.approx(
        highs_optimum(inst, relaxed=True), rel=1e-9, abs=1e-9)

    proof = solve_exact(inst, budget=120)
    assert proof.proven_optimal
    assert proof.best.true_cost == pytest.approx(optimum, abs=tol)
    cut = solve_exact(inst, budget=0.05)
    run = evolve(inst, GAConfig(iteration_limit=5, seed=seed))
    for name, result in (("bnb", proof.best), ("bnb-cut", cut.best),
                         ("ga", run.best), ("polish", run.polished)):
        assert verify_flow(inst, result.flow) == [], name
        assert result.true_cost >= optimum - tol, name
    for bound in (proof.bound, cut.bound):
        assert bound <= optimum + tol


@pytest.mark.parametrize("kind, n, classes, seed, fraction, proves", [
    ("geometric", 150, 3, 81, 0.5, True),  # bench large_a, 3114 pairs: 12 065 nodes, ~1 s
    ("geometric", 110, 2, 82, 0.5, True),  # bench large_b, 1376 pairs: 11 nodes
    ("geometric", 50, 3, 4, 0.6, False),   # 723 pairs: bound about 0.97 of it in 5 s
])
def test_bounds_and_flows_agree_with_highs_at_scale(kind, n, classes, seed, fraction, proves):
    # HiGHS proves each optimum in under 2 s; 5 s of branch-and-bound must
    # prove the first two, and whatever it reports must agree with HiGHS
    inst = generate_random(kind, n, classes, seed=seed, target_fraction=fraction)
    optimum = highs_optimum(inst, relaxed=False)
    tol = GAP_DEFAULT * max(1.0, optimum)

    assert lp_relaxation_bound(inst) == pytest.approx(
        highs_optimum(inst, relaxed=True), rel=1e-9, abs=1e-9)

    result = solve_exact(inst, budget=5)
    assert result.proven_optimal or not proves
    if result.proven_optimal:
        assert result.best.true_cost == pytest.approx(optimum, abs=tol)
    assert result.bound <= optimum + tol
    run = evolve(inst, GAConfig(iteration_limit=5, seed=seed))
    for name, found in (("bnb", result.best), ("ga", run.best), ("polish", run.polished)):
        assert verify_flow(inst, found.flow) == [], name
        assert found.true_cost >= optimum - tol, name


def test_budget_stop_at_scale():
    # 723 pairs that 1 s of branch-and-bound does not prove: the search stops
    # at its budget, in time, and reports a bound and a flow HiGHS agrees with
    inst = generate_random("geometric", 50, 3, seed=4, target_fraction=0.6)
    optimum = highs_optimum(inst, relaxed=False)
    started = time.perf_counter()
    result = solve_exact(inst, budget=1.0)
    assert time.perf_counter() - started <= 1.0 + 0.5
    assert not result.proven_optimal and result.open_peak > 0
    assert result.bound <= optimum <= result.best.true_cost
    assert verify_flow(inst, result.best.flow) == []


def scipy_max_flow(instance, open_pairs) -> int:
    """scipy's max flow over the given (edge, class) pairs, whose capacities
    must be integers; converting to CSR sums the capacities of parallel arcs."""
    tails = [instance.edges[e][0] for e, _ in open_pairs]
    heads = [instance.edges[e][1] for e, _ in open_pairs]
    caps = [int(instance.capacities[k]) for _, k in open_pairs]
    graph = coo_array((np.array(caps, dtype=np.int32), (tails, heads)),
                      shape=(instance.n_vertices, instance.n_vertices)).tocsr()
    return maximum_flow(graph, instance.source, instance.sink).flow_value


def test_max_flow_agrees_with_scipy_on_samples():
    # integer capacities, one to three classes, about a third of the arcs closed
    for seed in range(400):
        rng = random.Random(seed)
        inst = make_small_instance(rng, n_capacities=rng.randint(1, 3))
        topology = compile_topology(inst)
        closed = frozenset(i for i in range(len(topology.pairs)) if rng.random() < 0.3)
        open_pairs = [divmod(int(p), inst.n_capacities)
                      for i, p in enumerate(topology.pairs) if i not in closed]
        assert max_flow(topology, closed) == scipy_max_flow(inst, open_pairs), seed


@pytest.mark.parametrize("kind, n, classes, seed, fraction, every, widest", [
    ("geometric", 130, 3, 7, 0.6, 17, 10),   # bench desk
    ("geometric", 150, 3, 81, 0.5, 40, 23),  # bench large_a
    ("grid", 81, 2, 6, 0.6, 180, 126),       # bench grid81
])
def test_max_flow_agrees_with_scipy_on_bench(kind, n, classes, seed, fraction, every, widest):
    # every offered class open (validate), and each edge's widest class only
    inst = generate_random(kind, n, classes, seed=seed, target_fraction=fraction)
    offered = list(zip(*np.nonzero(inst.available)))
    widest_only = [(e, k) for e, k in offered if not inst.available[e, k + 1:].any()]
    assert max_flow(compile_topology(inst)) == scipy_max_flow(inst, offered) == every
    assert max_throughput(inst) == scipy_max_flow(inst, widest_only) == widest
