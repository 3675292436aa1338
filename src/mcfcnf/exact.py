"""Exact solvers: branch-and-bound over pair-use indicators, an enumeration
brute force for small instances, and warm-started neighborhood polishing.

Branch-and-bound relaxes each undecided (edge, class) pair to a linearized
fixed charge (fixed/capacity + variable per unit): a node bound is one
min-cost-flow solve, repaired from its parent's end state. Pairs forced open
add their fixed cost as a constant and cost only their variable cost per unit.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from .evaluate import ScoredSolution, score, verify_flow
from .flowcore import (ExpandedNetwork, FlowState, Infeasible, compile_topology,
                       flow_tol, max_flow, slope_scaled_costs, solve_min_cost_flow)

if TYPE_CHECKING:
    from .instance import Instance

#: Relative optimality gap: the one cost tolerance.
GAP_DEFAULT = 1e-6

#: Hard ceiling on (edges x classes) for the enumeration brute force.
BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class BnBNode:
    """A search node: pairs forced open, pairs forced closed, rest free.

    branch_pair is the free pair this node will split on (chosen from its
    own relaxation flow when the node is created); None means the relaxation
    was already integral in the use indicators and the node is a leaf.
    """

    fixed_open: frozenset[int]
    fixed_closed: frozenset[int]
    lower_bound: float
    depth: int
    branch_pair: int | None = None
    state: FlowState | None = None  # end state of its solve, for the children


@dataclass(frozen=True, eq=False)
class ExactResult:
    best: ScoredSolution
    proven_optimal: bool
    bound: float
    nodes_explored: int


def _gap_abs(incumbent: float) -> float:
    return GAP_DEFAULT * max(1.0, abs(incumbent))


def _pick_branch_pair(instance: Instance, flow: np.ndarray,
                      fixed_open: frozenset[int], fixed_closed: frozenset[int]) -> int | None:
    """Free pair with the most relaxation flow, fractional fixed charge only
    (0 < flow < capacity; saturated pairs already pay their full fixed charge
    in the relaxation). None means the relaxation is integral in the use
    indicators and the node needs no branching."""
    tol = flow_tol(instance.target)
    fractional = (flow > tol) & (flow < instance.capacities[None, :] - tol)
    flat = fractional.reshape(-1).copy()
    decided = list(fixed_open) + list(fixed_closed)
    if decided:
        flat[decided] = False
    candidates = np.flatnonzero(flat)
    if not len(candidates):
        return None
    amounts = flow.reshape(-1)[candidates]
    return int(candidates[np.argmax(amounts)])  # argmax keeps the lowest index on ties


def _branch_and_bound(instance: Instance, budget: float, extra_closed: frozenset[int],
                      warm: ScoredSolution | None,
                      node_log: list | None = None) -> ExactResult:
    start = time.perf_counter()
    topology = compile_topology(instance)
    free_cost = topology.arc_costs(slope_scaled_costs(instance))
    var_cost = topology.arc_costs(instance.variable_cost)
    fixed = instance.fixed_cost.reshape(-1).tolist()
    arc_of = topology.arc_of
    extra_arcs = topology.arcs_of(extra_closed)

    def node_network(fixed_open: frozenset[int],
                     fixed_closed: frozenset[int]) -> tuple[ExpandedNetwork, float]:
        """Network of one node (open pairs at their variable cost, closed
        pairs shut) plus the fixed-cost constant of its open pairs."""
        cost = list(free_cost)
        constant = 0.0
        for p in sorted(fixed_open):
            constant += fixed[p]
            cost[arc_of[p]] = var_cost[arc_of[p]]
        closed = extra_arcs | topology.arcs_of(fixed_closed)
        return ExpandedNetwork(topology, cost, closed), constant

    incumbent = warm
    best_cost = warm.true_cost if warm is not None else math.inf

    root_net, root_const = node_network(frozenset(), frozenset())
    zero = FlowState([], [], np.zeros(topology.n_vertices), 0.0)
    root_sol = solve_min_cost_flow(root_net, zero)  # Infeasible propagates
    nodes = 1
    root_bound = root_const + root_sol.lp_cost
    candidate = score(instance, root_sol)
    if candidate.true_cost < best_cost:
        incumbent = candidate
        best_cost = candidate.true_cost

    # min bound among nodes cut inside the gap window; keeps the reported
    # bound honest when gap-pruning discards marginally better completions
    pruned_floor = math.inf
    counter = 0
    heap: list = []

    def consider(node: BnBNode) -> None:
        nonlocal pruned_floor, counter
        if node.lower_bound >= best_cost:
            return
        if node.lower_bound >= best_cost - _gap_abs(best_cost):
            pruned_floor = min(pruned_floor, node.lower_bound)
            return
        if node.branch_pair is None:
            # relaxation integral in the indicators; its score was already
            # offered as an incumbent, nothing below this bound remains
            return
        heappush(heap, (node.lower_bound, -node.depth, counter, node))
        counter += 1

    root_pair = _pick_branch_pair(instance, root_sol.flow, frozenset(), extra_closed)
    consider(BnBNode(frozenset(), frozenset(), root_bound, 0, root_pair, root_sol.state))

    while heap:
        if time.perf_counter() - start > budget:
            break  # the nodes left on the heap bound the rest
        bound, _, _, node = heappop(heap)
        if bound >= best_cost - _gap_abs(best_cost):
            if bound < best_cost:
                pruned_floor = min(pruned_floor, bound)
            continue
        pair = node.branch_pair
        for child_open, child_closed in ((node.fixed_open, node.fixed_closed | {pair}),
                                         (node.fixed_open | {pair}, node.fixed_closed)):
            net, const = node_network(child_open, child_closed)
            nodes += 1
            try:
                sol = solve_min_cost_flow(net, node.state, arc_of[pair])
            except Infeasible:
                continue
            child_bound = const + sol.lp_cost
            if node_log is not None:
                node_log.append((node.lower_bound, child_bound))
            cand = score(instance, sol)
            if cand.true_cost < best_cost:
                incumbent = cand
                best_cost = cand.true_cost
            child_pair = _pick_branch_pair(instance, sol.flow, child_open,
                                           child_closed | extra_closed)
            consider(BnBNode(child_open, child_closed, child_bound,
                             node.depth + 1, child_pair, sol.state))

    floor = min((entry[0] for entry in heap), default=math.inf)
    final_bound = min(best_cost, pruned_floor, floor)
    proven = (best_cost - final_bound) <= _gap_abs(best_cost)
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
    if budget <= 0:
        raise ValueError("budget must be positive")
    return _branch_and_bound(instance, budget, frozenset(), None, node_log)


def brute_force(instance: Instance) -> ExactResult:
    """Exhaustive optimum over every subset of offered pairs.

    For each open subset the variable-cost-optimal flow is solved exactly,
    so the result is always proven optimal. Subsets are visited in order of
    increasing fixed cost, which lets the scan stop once fixed cost alone
    exceeds the incumbent. Guarded to edges x classes <= 20.
    """
    n_caps = instance.n_capacities
    total_pairs = instance.n_edges * n_caps
    if total_pairs > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} "
                         f"(edge, capacity) pairs, got {total_pairs}")

    pairs = [(e, k) for e in range(instance.n_edges) for k in range(n_caps)
             if instance.available[e, k]]
    n_p = len(pairs)
    caps = instance.capacities

    fixed_sums = np.zeros(1)
    s_out = np.zeros(1)
    t_in = np.zeros(1)
    for e, k in pairs:
        a = instance.fixed_cost[e, k]
        u, w = instance.edges[e]
        c_out = caps[k] if u == instance.source else 0.0
        c_in = caps[k] if w == instance.sink else 0.0
        fixed_sums = np.concatenate([fixed_sums, fixed_sums + a])
        s_out = np.concatenate([s_out, s_out + c_out])
        t_in = np.concatenate([t_in, t_in + c_in])

    least = instance.target - flow_tol(instance.target)
    feasible = (s_out >= least) & (t_in >= least)
    masks = np.flatnonzero(feasible)
    masks = masks[np.argsort(fixed_sums[masks], kind="stable")]

    best_cost = math.inf
    best_flow = None
    solves = 0
    topology = compile_topology(instance)  # arc i is pairs[i]
    var_cost = topology.arc_costs(instance.variable_cost)
    for mask in masks.tolist():
        fixed = fixed_sums[mask]
        if fixed >= best_cost:  # lp_cost >= 0, so no better total follows
            break
        closed = frozenset(i for i in range(n_p) if not mask >> i & 1)
        solves += 1
        try:
            sol = solve_min_cost_flow(ExpandedNetwork(topology, var_cost, closed))
        except Infeasible:
            continue
        total = fixed + sol.lp_cost
        if total < best_cost:
            best_cost = total
            best_flow = sol
    if best_flow is None:
        mf = max_flow(topology)
        raise Infeasible(f"target {instance.target} exceeds max flow {mf}", max_flow=mf)
    best = score(instance, best_flow)
    return ExactResult(best=best, proven_optimal=True,
                       bound=best.true_cost, nodes_explored=solves)


def polish(instance: Instance, warm: ScoredSolution, budget: float) -> ScoredSolution:
    """Exact improvement restricted to the warm solution's neighborhood.

    Pairs on edges sharing an endpoint with any edge the warm solution uses
    stay free; every other pair is forced closed. The warm solution seeds
    the incumbent, so the result is never worse than the input. On budget
    exhaustion the best found so far (at worst the warm input) is returned.
    """
    problems = verify_flow(instance, warm.flow)
    if problems:
        raise ValueError("warm start is not a valid flow: " + "; ".join(problems))
    if budget <= 0:
        return warm

    used_edges = np.nonzero(warm.used.any(axis=1))[0]
    touched = set()
    for e in used_edges:
        u, w = instance.edges[e]
        touched.add(u)
        touched.add(w)
    n_caps = instance.n_capacities
    closed = frozenset(
        e * n_caps + k
        for e, (u, w) in enumerate(instance.edges)
        if u not in touched and w not in touched
        for k in range(n_caps)
    )
    try:
        result = _branch_and_bound(instance, budget, closed, warm)
    except Infeasible:  # cannot happen: warm itself routes the target
        return warm
    if result.best.true_cost < warm.true_cost:
        return result.best
    return warm
