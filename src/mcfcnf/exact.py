"""Exact solvers: branch-and-bound over arc-use indicators and warm-started
neighborhood polishing.

Branch-and-bound branches on the arcs of a compiled topology, one per
offered (edge, class) pair (for polishing, only the pairs near the warm
solution), and relaxes each undecided arc to a linearized fixed charge
(fixed/capacity + variable per unit, the seed organism's cost, so the
root is lp_relaxation_bound's solve): a node bound is one min-cost-flow
solve, repaired from its parent's end state. Arcs forced open add their
fixed cost as a constant and cost only their variable cost per unit. A
node is one kernel call (solve_min_cost_flow with the node's opened
arcs): the cost patch, the constant, the bound, an estimate of the flow's
true cost and the arc to branch on all come from C. The exact arc-space
true cost, and score for a new incumbent, run only where the estimate is
within evaluate.TRUE_COST_MARGIN of beating the incumbent, so every
incumbent is the one a per-node exact pricing would pick.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from .evaluate import TRUE_COST_MARGIN, ScoredSolution, score, true_cost, verify_flow
from .flowcore import (ExpandedNetwork, FlowState, Infeasible, Topology,
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


def gap_abs(incumbent: float) -> float:
    """The absolute gap within which a bound proves a cost optimal."""
    return GAP_DEFAULT * max(1.0, abs(incumbent))


def _branch_and_bound(instance: Instance, budget: float, topology: Topology,
                      warm: ScoredSolution | None, node_log: list | None = None,
                      node_limit: float = math.inf) -> ExactResult:
    """Best-first search over the arcs of `topology`, the instance's compiled
    topology or one of a subset of its pairs (the others stay unused), until
    budget seconds pass or node_limit nodes are solved (a pop solves two)."""
    start = time.perf_counter()
    # lp_relaxation_bound's arc costs, one per offered pair: slot picks this topology's
    free_cost = build_expanded_network(instance, seed_organism(instance)).cost[topology.slot]

    incumbent = warm
    best_cost = warm.true_cost if warm is not None else math.inf
    # min bound among nodes cut inside the gap window; keeps the reported
    # bound honest when gap-pruning discards marginally better completions
    pruned_floor = math.inf
    nodes = 0
    # queued nodes: (bound, -depth, visit count, opened, closed, branch arc,
    # end state), so ties go deeper first, then first visited. branch arc is
    # the free arc the node splits on; a node whose relaxation is integral
    # in the use indicators is a leaf and is never queued
    heap: list = []

    def pruned(bound: float) -> bool:
        """Whether the incumbent is within the gap of bound: written so, not
        negated, as a NaN while best_cost is inf prunes nothing."""
        nonlocal pruned_floor
        if bound >= best_cost - gap_abs(best_cost):
            if bound < best_cost:
                pruned_floor = min(pruned_floor, bound)
            return True
        return False

    def visit(opened: frozenset[int], closed: frozenset[int], depth: int,
              parent_state: FlowState | None = None, changed: int | None = None) -> float:
        """Solve one node (open arcs at their variable cost plus their fixed
        cost as a constant), offer its flow as the incumbent and queue it
        unless pruned or integral. Returns its bound; raises Infeasible."""
        nonlocal incumbent, best_cost, nodes
        nodes += 1
        sol = solve_min_cost_flow(ExpandedNetwork(topology, free_cost, closed, opened),
                                  parent_state, changed)
        constant, estimate, branch = sol.node
        bound, state = constant + sol.lp_cost, sol.state
        # the exact true cost only where the estimate may be below best_cost;
        # an Instance's costs have a finite total, so the root's beats inf
        if (estimate <= best_cost * (1.0 + TRUE_COST_MARGIN) and
                true_cost(topology, state.arcs, state.residual[1::2]) < best_cost):
            incumbent = score(instance, sol)  # a ScoredSolution, for a new incumbent only
            best_cost = incumbent.true_cost
        if pruned(bound):
            return bound
        # branch: the unopened arc with the most fractional flow, the first on
        # ties; closed arcs carry none, saturated ones pay their full fixed
        # charge already. None (-1): integral, nothing below remains
        if branch >= 0:
            heappush(heap, (bound, -depth, nodes, opened, closed, branch, state))
        return bound

    visit(frozenset(), frozenset(), 0)  # the root; Infeasible propagates
    while heap:
        if time.perf_counter() - start > budget or nodes >= node_limit:
            break  # the nodes left on the heap bound the rest
        bound, neg_depth, _, opened, closed, arc, state = heappop(heap)
        if pruned(bound):
            continue
        for child in ((opened, closed | {arc}), (opened | {arc}, closed)):
            try:
                child_bound = visit(*child, 1 - neg_depth, state, arc)
            except Infeasible:
                continue
            if node_log is not None:
                node_log.append((bound, child_bound))

    floor = min((entry[0] for entry in heap), default=math.inf)
    final_bound = min(best_cost, pruned_floor, floor)
    proven = (best_cost - final_bound) <= gap_abs(best_cost)
    assert incumbent is not None
    return ExactResult(best=incumbent, proven_optimal=proven,
                       bound=final_bound, nodes_explored=nodes)


def solve_exact(instance: Instance, budget: float,
                node_log: list | None = None) -> ExactResult:
    """Best-first branch-and-bound for the true fixed-charge optimum.

    Raises Infeasible when the instance cannot route its target, and
    ValueError for a nonpositive budget. With node_log a list, appends
    (parent bound, child bound) per explored child.
    """
    if not budget > 0:  # NaN too
        raise ValueError(f"budget must be positive (got {budget!r})")
    return _branch_and_bound(instance, budget, compile_topology(instance), None, node_log)


def polish(instance: Instance, warm: ScoredSolution, budget: float, *,
           node_limit: float = math.inf) -> ScoredSolution:
    """Exact improvement restricted to the warm solution's neighborhood.

    Pairs on edges sharing an endpoint with any edge the warm solution uses
    stay free; the search runs on a topology of only those pairs. The warm
    solution seeds the incumbent, so the result is never worse than the
    input. The search stops after budget seconds or node_limit nodes (one
    more at most) and returns the best found (at worst the warm input).
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
        return _branch_and_bound(instance, budget, topology, warm, None, node_limit).best
    except Infeasible:  # verify_flow let warm fall VERIFY_TOL short, the search allows flow_tol
        return warm
