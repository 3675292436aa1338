"""Exact solvers: branch-and-bound over arc-use indicators and warm-started
neighborhood polishing.

Branch-and-bound branches on the arcs of a compiled topology, one per
offered (edge, class) pair (for polishing, only the pairs near the warm
solution), and relaxes each undecided arc to a linearized fixed charge
(fixed/capacity + variable per unit, the seed organism's cost, so the root
is lp_relaxation_bound's solve); arcs forced open add their fixed cost as a
constant and cost their variable cost per unit. The root is one
solve_min_cost_flow call, the rest one loop in C (flowcore.load_kernel's
search), which returns only for a candidate incumbent, a node whose
estimated true cost is within evaluate.TRUE_COST_MARGIN of beating it: the
exact true cost, and score for a new incumbent, run there, so every
incumbent is the one a per-node exact pricing would pick.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import flowcore
from .evaluate import TRUE_COST_MARGIN, ScoredSolution, score, true_cost, verify_flow
from .flowcore import (ExpandedNetwork, FlowSolution, Infeasible, Topology,
                       build_expanded_network, compile_topology, seed_organism,
                       solve_min_cost_flow)

if TYPE_CHECKING:
    from .instance import Instance

#: Relative optimality gap: the one cost tolerance.
GAP_DEFAULT = 1e-6


@dataclass(frozen=True, eq=False)
class ExactResult:
    best: ScoredSolution
    proven_optimal: bool
    bound: float
    nodes_explored: int
    open_peak: int  # the most nodes open at once


def gap_abs(incumbent: float) -> float:
    """The absolute gap within which a bound proves a cost optimal."""
    return GAP_DEFAULT * max(1.0, abs(incumbent))


def _branch_and_bound(instance: Instance, budget: float, topology: Topology,
                      warm: ScoredSolution | None, node_log: list | None = None,
                      node_limit: float = math.inf, solve_log: list | None = None) -> ExactResult:
    """Best-first search over the arcs of `topology`, the instance's compiled
    topology or one of a subset of its pairs (the others stay unused), until
    budget seconds pass or node_limit nodes are solved (a pop solves two)."""
    start = time.perf_counter()
    # lp_relaxation_bound's arc costs, one per offered pair: slot picks this topology's
    free_cost = build_expanded_network(instance, seed_organism(instance)).cost[topology.slot]
    incumbent, best_cost = warm, warm.true_cost if warm is not None else math.inf

    def offer(sol: FlowSolution) -> float:
        """A candidate's exact true cost, and score for a new incumbent only.
        An Instance's costs have a finite total, so the root's beats inf."""
        nonlocal incumbent, best_cost
        if true_cost(topology, sol.state.arcs, sol.state.residual[1::2]) < best_cost:
            incumbent = score(instance, sol)
            best_cost = incumbent.true_cost
        return best_cost

    root = solve_min_cost_flow(ExpandedNetwork(topology, free_cost))  # Infeasible propagates
    nodes, open_peak, pruned_floor, floor = flowcore._kernel().search(
        topology, free_cost, root, best_cost, budget - (time.perf_counter() - start),
        node_limit, (GAP_DEFAULT, 1.0 + TRUE_COST_MARGIN), offer, solve_log, node_log)
    final_bound = min(best_cost, pruned_floor, floor)
    assert incumbent is not None
    return ExactResult(best=incumbent, proven_optimal=best_cost - final_bound <= gap_abs(best_cost),
                       bound=final_bound, nodes_explored=nodes, open_peak=open_peak)


def solve_exact(instance: Instance, budget: float, node_log: list | None = None,
                solve_log: list | None = None) -> ExactResult:
    """Best-first branch-and-bound for the true fixed-charge optimum.

    Raises Infeasible when the instance cannot route its target, and
    ValueError for a nonpositive budget. With node_log a list, appends
    (parent bound, child bound) per feasible child. With solve_log a list,
    appends (parent, arc, closed, feasible, solution) per node solved, the
    root first: the parent's index in the log and the arc decided (-1 for
    none), the arc closed or opened, whether the node routes the target, and
    its FlowSolution. The search then returns from C after every solve.
    """
    if not budget > 0:  # NaN too
        raise ValueError(f"budget must be positive (got {budget!r})")
    return _branch_and_bound(instance, budget, compile_topology(instance), None, node_log,
                             solve_log=solve_log)


def polish(instance: Instance, warm: ScoredSolution, budget: float, *,
           node_limit: float = math.inf, solve_log: list | None = None) -> ScoredSolution:
    """Exact improvement restricted to the warm solution's neighborhood.

    Pairs on edges sharing an endpoint with any edge the warm solution uses
    stay free; the search runs on a topology of only those pairs. The warm
    solution seeds the incumbent, so the result is never worse than the
    input. The search stops after budget seconds or node_limit nodes (one
    more at most) and returns the best found (at worst the warm input).
    solve_log is solve_exact's.
    """
    problems = verify_flow(instance, warm.flow)
    if problems:
        raise ValueError("warm start is not a valid flow: " + "; ".join(problems))
    if not budget > 0:  # NaN too
        return warm

    touched = {v for e in np.flatnonzero(warm.used.any(axis=1)) for v in instance.edges[e]}
    near = np.array([u in touched or w in touched for u, w in instance.edges])
    topology = Topology(instance, np.flatnonzero(instance.available & near[:, None]))
    try:
        return _branch_and_bound(instance, budget, topology, warm, None, node_limit,
                                 solve_log).best
    except Infeasible:  # verify_flow let warm fall VERIFY_TOL short, the search allows flow_tol
        return warm
