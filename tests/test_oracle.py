"""HiGHS (scipy.optimize.milp) as an independent oracle at 100-600 pairs.

The model has one continuous flow f and one use indicator y per offered
(edge, class) pair, f <= c_k * y (big M equal to the class capacity), and
flow conservation with the target leaving the source. Its optimum is the
true fixed-charge optimum; with y relaxed to [0, 1] it is the LP relaxation,
which the slope-scaled bound must equal (z = f / c at the optimum).
"""
import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_array  # noqa: E402

from mcfcnf import (GAP_DEFAULT, GAConfig, evolve, generate_random,  # noqa: E402
                    lp_relaxation_bound, solve_exact, verify_flow)

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
