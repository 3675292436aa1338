"""Shared fixtures, a small random-instance sampler, and independent
enumeration oracles used to cross-check the solvers."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from mcfcnf import (ExactResult, ExpandedNetwork, Infeasible, Instance, compile_topology,
                    flow_tol, max_throughput, score, solve_min_cost_flow)
from mcfcnf.flowcore import max_flow

#: Hard ceiling on (edges x classes) for the enumeration brute force.
BRUTE_FORCE_LIMIT = 20


def fig1_instance() -> Instance:
    """Four-edge diamond with one capacity class: two parallel two-hop paths
    of capacity 2 each and a target of 3, so both paths must open. The true
    optimum is 20 (two units on the cheap-variable path)."""
    return Instance(
        n_vertices=4, source=0, sink=3,
        edges=((0, 1), (0, 2), (1, 3), (2, 3)),
        capacities=np.array([2.0]),
        fixed_cost=np.array([[6.0], [2.0], [6.0], [2.0]]),
        variable_cost=np.array([[0.5], [1.0], [0.5], [1.0]]),
        target=3.0,
    )


def minimal_instance() -> Instance:
    """Single edge s->t, one class of capacity 5, unit fixed and variable
    cost, target 3. Optimum 4."""
    return Instance(
        n_vertices=2, source=0, sink=1,
        edges=((0, 1),),
        capacities=np.array([5.0]),
        fixed_cost=np.array([[1.0]]),
        variable_cost=np.array([[1.0]]),
        target=3.0,
    )


def two_class_edge_instance() -> Instance:
    """One edge offering classes 2 and 3 under target 4: no class alone
    carries the target, both together do. Optimum 6.5 with flow [2, 2]."""
    return Instance(
        n_vertices=2, source=0, sink=1,
        edges=((0, 1),),
        capacities=np.array([2.0, 3.0]),
        fixed_cost=np.array([[1.0, 1.5]]),
        variable_cost=np.array([[0.5, 1.5]]),
        target=4.0,
    )


#: A small facility file: two costed sources, one sink, two transport edges.
#: Its optimum, 34.4, routes all 4 units from the vertex-2 source.
FACILITY_TEXT = """\
MCFCNF-FACILITY 1
VERTICES 3
TARGET 4.0
CAPACITIES 2 2.0 5.0
SOURCES 2
0 10.0 1.0 5.0
2 1.0 0.1 9.0
SINKS 1
1 20.0 2.0 5.0
EDGES 2
0 1 3.0 0.5 NA NA
2 1 NA NA 4.0 0.25
"""


@pytest.fixture
def fig1() -> Instance:
    return fig1_instance()


@pytest.fixture
def minimal() -> Instance:
    return minimal_instance()


def make_small_instance(rng: random.Random, *, max_vertices: int = 8,
                        max_edges: int = 12, n_capacities: int = 1,
                        cap_choices: tuple[int, ...] = (1, 2, 3, 4),
                        fixed_range: tuple[int, int] = (1, 12),
                        variable_range: tuple[int, int] = (0, 6),
                        target_cap: int | None = None) -> Instance:
    """Random feasible integer instance with a guaranteed s-t path.

    The source has no incoming and the sink no outgoing edges. All data is
    integer-valued so integral-flow enumeration is a valid oracle.
    """
    while True:
        n = rng.randint(3, max_vertices)
        s, t = 0, n - 1
        interior = list(range(1, n - 1))
        rng.shuffle(interior)
        path_len = rng.randint(0, min(len(interior), max_edges - 1))
        path = [s] + interior[:path_len] + [t]
        edges = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
        for _ in range(2 * max_edges):
            if len(edges) >= max_edges or rng.random() < 0.25:
                break
            u, w = rng.randrange(n), rng.randrange(n)
            if u == w or w == s or u == t:
                continue
            edges.append((u, w))

        caps = sorted(rng.sample(cap_choices, n_capacities))
        m = len(edges)
        fixed = np.array([[rng.randint(*fixed_range) for _ in caps] for _ in range(m)],
                         dtype=float)
        variable = np.array([[rng.randint(*variable_range) for _ in caps] for _ in range(m)],
                            dtype=float)
        instance = Instance(
            n_vertices=n, source=s, sink=t, edges=tuple(edges),
            capacities=np.array(caps, dtype=float), fixed_cost=fixed,
            variable_cost=variable, target=1.0,
        )
        mf = max_throughput(instance)
        if mf < 1.0:
            continue
        upper = int(mf) if target_cap is None else min(target_cap, int(mf))
        import dataclasses
        return dataclasses.replace(instance, target=float(rng.randint(1, upper)))


def _available_pairs(instance: Instance) -> list[tuple[int, int]]:
    return [(e, k) for e in range(instance.n_edges)
            for k in range(instance.n_capacities) if instance.available[e, k]]


def _cartesian(bounds: list[int]) -> np.ndarray:
    """All integer tuples with component i in range(bounds[i]), vectorized."""
    total = math.prod(bounds)
    out = np.empty((total, len(bounds)), dtype=np.int64)
    reps = total
    for i, b in enumerate(bounds):
        reps //= b
        out[:, i] = np.tile(np.repeat(np.arange(b), reps), total // (b * reps))
    return out


def _feasible_integral_flows(instance: Instance) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Every integral pair-flow vector meeting capacity, conservation, and
    the target. Exhaustive: only usable on tiny integer instances."""
    pairs = _available_pairs(instance)
    bounds = [int(instance.capacities[k]) + 1 for _, k in pairs]
    flows = _cartesian(bounds)

    balance = np.zeros((instance.n_vertices, len(pairs)))
    from_source = np.zeros(len(pairs))
    for i, (e, _) in enumerate(pairs):
        u, w = instance.edges[e]
        balance[u, i] -= 1.0
        balance[w, i] += 1.0
        if u == instance.source:
            from_source[i] = 1.0
    internal = [v for v in range(instance.n_vertices)
                if v not in (instance.source, instance.sink)]
    ok = np.ones(len(flows), dtype=bool)
    if internal:
        ok &= (flows @ balance[internal].T == 0).all(axis=1)
    ok &= flows @ from_source == instance.target
    return flows[ok], pairs


def integral_flow_min_cost(instance: Instance, unit_cost: np.ndarray) -> float | None:
    """Minimum of a linear per-unit objective over all integral flows, or
    None when no integral flow meets the target."""
    flows, pairs = _feasible_integral_flows(instance)
    if not len(flows):
        return None
    cost_vec = np.array([unit_cost[e, k] for e, k in pairs])
    return float((flows @ cost_vec).min())


def integral_score_optimum(instance: Instance) -> float | None:
    """True fixed-plus-variable optimum by enumerating integral flows and
    charging fixed costs through use indicators. Valid as the exact optimum
    for integer capacities and target."""
    flows, pairs = _feasible_integral_flows(instance)
    if not len(flows):
        return None
    fixed_vec = np.array([instance.fixed_cost[e, k] for e, k in pairs])
    var_vec = np.array([instance.variable_cost[e, k] for e, k in pairs])
    costs = flows @ var_vec + (flows > 0) @ fixed_vec
    return float(costs.min())


def brute_force(instance: Instance) -> ExactResult:
    """Exhaustive optimum over every subset of offered pairs.

    For each open subset the variable-cost-optimal flow is solved exactly,
    so the result is always proven optimal. Subsets are visited in order of
    increasing fixed cost, which lets the scan stop once fixed cost alone
    exceeds the incumbent. Guarded to edges x classes <= 20.
    """
    total_pairs = instance.n_edges * instance.n_capacities
    if total_pairs > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} "
                         f"(edge, capacity) pairs, got {total_pairs}")

    topology = compile_topology(instance)
    n_p = len(topology.pairs)
    capacity = topology.capacity[0::2]
    c_out = np.where(topology.head[1::2] == topology.source, capacity, 0.0).tolist()
    c_in = np.where(topology.head[0::2] == topology.sink, capacity, 0.0).tolist()
    fixed_sums = s_out = t_in = np.zeros(1)  # bit i of a subset: arc i open
    for a, out, into in zip(topology.fixed.tolist(), c_out, c_in):
        fixed_sums = np.concatenate([fixed_sums, fixed_sums + a])
        s_out = np.concatenate([s_out, s_out + out])
        t_in = np.concatenate([t_in, t_in + into])

    least = instance.target - flow_tol(instance.target)
    feasible = (s_out >= least) & (t_in >= least)
    masks = np.flatnonzero(feasible)
    masks = masks[np.argsort(fixed_sums[masks], kind="stable")]

    best_cost = math.inf
    best_flow = None
    solves = 0
    var_cost = instance.variable_cost.reshape(-1)[topology.pairs]
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
