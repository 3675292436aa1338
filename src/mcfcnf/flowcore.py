"""Exact solver for the scaled-fixed-cost flow relaxation.

Every offered (edge, capacity class) pair becomes one arc with capacity c_k
and unit cost fixed/scale + variable, so the relaxation reduces to a plain
min-cost flow of the target amount from source to sink. The solver is
successive shortest augmenting paths with vertex potentials: exact,
dependency-free, and deterministic (ties resolved by lowest arc index).

The network is compiled once per instance (compile_topology: arcs, residual
heads and capacities, per-vertex adjacency, kept on the instance) and solved
many times from a per-arc cost vector and a set of closed arcs: a GA decode
changes the costs, a branch-and-bound node also closes arcs, the brute force
opens a subset. A closed arc keeps its place in the arc order with no
capacity, so every tie-break is the one of the instance without its pair.
A branch-and-bound child, one arc closed or cheaper, is solved by the same
SSP kernel repairing its parent's end state (FlowState; Ahuja, Magnanti &
Orlin, Network Flows, 1993, ch. 9). Max flow is the same kernel at zero
cost, which makes it Edmonds-Karp. One rule, flow_tol, says what flow
amount counts as zero, for every solver, validate, score and verify_flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .instance import Instance

#: Scale value meaning "the scaled fixed cost is exactly zero". IEEE infinity
#: divides any finite fixed cost to an exact 0.0, with no overflow.
UNBOUNDED = math.inf

#: Global floor for finite scale entries.
D_MIN = 1e-6

#: Relative flow tolerance of the one zero rule (see flow_tol).
FLOW_TOL = 1e-12


def flow_tol(target: float) -> float:
    """Zero flow: the shortfall a solve may leave, the most an unused pair
    may carry (so it pays no fixed charge)."""
    return FLOW_TOL * max(1.0, target)


class Infeasible(Exception):
    """The network cannot carry the target flow amount."""

    def __init__(self, message: str, max_flow: float = 0.0):
        super().__init__(message)
        self.max_flow = max_flow


class FlowIterationError(RuntimeError):
    """Augmentation count exceeded the safety cap (pathological input)."""


@dataclass(frozen=True, eq=False)
class Organism:
    """Array of fixed-cost divisors, one per (edge, capacity class) pair.

    Finite entries must respect the global D_MIN floor; UNBOUNDED entries
    zero out the fixed cost entirely.
    """

    scale: np.ndarray

    def __post_init__(self):
        scale = np.array(self.scale, dtype=np.float64)
        if np.isnan(scale).any():
            raise ValueError("scale entries must not be NaN")
        finite = scale[np.isfinite(scale)]
        if finite.size and finite.min() < D_MIN * (1 - 1e-12):
            raise ValueError(f"finite scale entries must be >= {D_MIN}")
        scale.setflags(write=False)
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True, eq=False)
class Topology:
    """Cost-free capacity-expanded network of one instance: one arc per
    offered (edge, class) pair, or per pair of a subset, in (edge, class)
    order, between the vertices those arcs touch (plus source and sink),
    renumbered in order. Residual id 2i is arc i forward, 2i+1 its reversal."""

    n_vertices: int
    source: int
    sink: int
    target: float
    pair_shape: tuple[int, int]
    pairs: np.ndarray               # flat (edge, class) index of each arc
    head: list[int]                 # head vertex of each residual id
    capacity: list[float]           # initial residual capacity of each residual id
    adjacency: list[list[int]]      # residual ids leaving each vertex

    def arc_costs(self, values: np.ndarray) -> list[float]:
        """Per-arc values (unit or fixed costs) taken from an (edge, class)
        matrix."""
        return values.reshape(-1)[self.pairs].tolist()


class ExpandedNetwork(NamedTuple):
    """A compiled topology under one per-arc cost vector. Closed arcs carry
    no flow; they keep their place in the arc order, so the solve equals
    the one on the instance without their pairs."""

    topology: Topology
    cost: list[float]
    closed: frozenset[int] = frozenset()


class FlowState(NamedTuple):
    """Where an optimal solve ended, compactly: the carrying arcs, their
    forward and reverse residuals in turn, vertex potentials that keep every
    reduced cost nonnegative, and the target shortfall."""

    arcs: list[int]
    residual: list[float]
    potential: np.ndarray
    shortfall: float


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """Flow per (edge, class) pair, relaxation objective, kept end state."""

    flow: np.ndarray
    lp_cost: float
    state: FlowState | None = None

    def __post_init__(self):
        flow = np.array(self.flow, dtype=np.float64)
        flow.setflags(write=False)
        object.__setattr__(self, "flow", flow)


def compile_topology(instance: Instance) -> Topology:
    """The instance's topology, compiled on first use and kept on the
    (immutable) instance for every later solve."""
    topology = getattr(instance, "_topology", None)
    if topology is None:
        topology = compile_pairs(instance, np.flatnonzero(instance.available.reshape(-1)))
        object.__setattr__(instance, "_topology", topology)
    return topology


def compile_pairs(instance: Instance, pairs: np.ndarray) -> Topology:
    """Topology of only the given offered pairs (ascending flat (edge, class)
    indices), not cached. Leaving a pair's arc out solves exactly like
    closing it, but no solve pays for the arc or for a vertex left bare."""
    n_caps = instance.n_capacities
    caps = instance.capacities.tolist()
    ends = [instance.edges[p // n_caps] for p in pairs.tolist()]
    vertices = sorted({instance.source, instance.sink}.union(*ends))
    index = dict(zip(vertices, range(len(vertices))))
    head: list[int] = []
    capacity: list[float] = []
    adjacency: list[list[int]] = [[] for _ in vertices]
    for i, ((u, w), p) in enumerate(zip(ends, pairs.tolist())):
        u, w = index[u], index[w]
        adjacency[u].append(2 * i)
        adjacency[w].append(2 * i + 1)
        head += (w, u)
        capacity += (caps[p % n_caps], 0.0)
    return Topology(
        n_vertices=len(vertices), source=index[instance.source], sink=index[instance.sink],
        target=instance.target, pair_shape=(instance.n_edges, n_caps), pairs=pairs,
        head=head, capacity=capacity, adjacency=adjacency,
    )


def build_expanded_network(instance: Instance, organism: Organism) -> ExpandedNetwork:
    """Expand an instance under an organism's fixed-cost divisors."""
    shape = (instance.n_edges, instance.n_capacities)
    if organism.scale.shape != shape:
        raise ValueError(f"organism shape {organism.scale.shape} does not match "
                         f"instance (edges, capacities) {shape}")
    topology = compile_topology(instance)
    cost = instance.fixed_cost / organism.scale + instance.variable_cost
    return ExpandedNetwork(topology, topology.arc_costs(cost))


def slope_scaled_costs(instance: Instance) -> np.ndarray:
    """Per-pair unit costs with the fixed charge linearized over the full
    capacity (divisor equal to the class capacity)."""
    scale = np.broadcast_to(np.maximum(instance.capacities, D_MIN),
                            (instance.n_edges, instance.n_capacities))
    return instance.fixed_cost / scale + instance.variable_cost


def _augment(topology: Topology, rcost: list[float], res: list[float], pot: list[float],
             frm: int, to: int, amount: float, stop: float, push_cap: int) -> float:
    """SSP kernel: send amount from frm to to under nonnegative reduced costs
    rcost + pot[u] - pot[v]; updates res and pot, returns the amount left."""
    n, head, adj = topology.n_vertices, topology.head, topology.adjacency
    inf = math.inf
    remaining = amount
    # No proven bound for a costed solve: each augmentation saturates an arc
    # or meets the target, but adversarial networks need exponentially many.
    # A Hypothesis property (test_push_cap_never_reached) checks fractional
    # capacities, costs 0-1e9. At zero cost (max_flow) Edmonds-Karp's does.
    pushes = 0

    while remaining > stop:
        pushes += 1
        if pushes > push_cap:
            raise FlowIterationError(f"augmentation count exceeded {push_cap}")

        dist = [inf] * n
        done = [False] * n
        parent = [-1] * n
        dist[frm] = 0.0
        heap = [(0.0, 0, frm)]
        counter = 1
        dist_t = inf
        while heap:
            d, _, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == to:
                dist_t = d
                break
            pu = pot[u]
            for rid in adj[u]:
                if res[rid] <= 0.0:
                    continue
                v = head[rid]
                if done[v]:
                    continue
                nd = d + rcost[rid] + pu - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = rid
                    heappush(heap, (nd, counter, v))
                    counter += 1

        if dist_t == inf:
            return remaining

        # settled vertices keep their label; the rest shift by dist_t, which
        # preserves nonnegative reduced costs on all residual arcs
        for v in range(n):
            pot[v] += dist[v] if done[v] and dist[v] < dist_t else dist_t

        bottleneck = remaining
        v = to
        while v != frm:
            rid = parent[v]
            if res[rid] < bottleneck:
                bottleneck = res[rid]
            v = head[rid ^ 1]
        v = to
        while v != frm:
            rid = parent[v]
            res[rid] -= bottleneck
            res[rid ^ 1] += bottleneck
            v = head[rid ^ 1]
        remaining -= bottleneck
    return remaining


def solve_min_cost_flow(net: ExpandedNetwork, start: FlowState | None = None,
                        changed: int | None = None) -> FlowSolution:
    """Route the target amount from source to sink at minimum cost.

    Requires nonnegative unit costs. Raises Infeasible (carrying the achieved
    max flow) when the network cannot deliver the target.

    Starts from zero flow and potentials, or from start, the end state of a
    solve of net before arc `changed` was closed (its flow is sent around it)
    or made cheaper (saturated if that pays, the surplus sent back); without
    `changed` the target is routed on top. Then the solution keeps its state.
    """
    topology, arc_cost, closed = net
    head = topology.head
    target = topology.target
    m = len(arc_cost)
    if m != len(topology.pairs):
        raise ValueError(f"{m} arc costs for {len(topology.pairs)} arcs")
    if m and min(arc_cost) < 0:
        i = arc_cost.index(min(arc_cost))
        raise ValueError(f"arc {i} has negative unit cost {arc_cost[i]}")

    rcost = [0.0] * (2 * m)
    rcost[0::2] = arc_cost
    rcost[1::2] = [-c for c in arc_cost]
    res = topology.capacity.copy()
    pot, shortfall = [0.0] * topology.n_vertices, 0.0
    frm, to, amount = topology.source, topology.sink, target
    if start is not None:
        for i, fwd, rev in zip(start.arcs, start.residual[0::2], start.residual[1::2]):
            res[2 * i], res[2 * i + 1] = fwd, rev
        pot, shortfall = start.potential.tolist(), start.shortfall
    if changed is not None:
        fwd, rev = 2 * changed, 2 * changed + 1
        if changed in closed:  # its flow goes around it
            frm, to, amount = head[rev], head[fwd], res[rev]
            res[rev] = 0.0
        else:  # saturated if that pays; the surplus goes back
            pays = rcost[fwd] + pot[head[rev]] - pot[head[fwd]] < 0.0
            frm, to, amount = head[fwd], head[rev], res[fwd] if pays else 0.0
            res[fwd], res[rev] = res[fwd] - amount, res[rev] + amount
    for i in closed:
        res[2 * i] = 0.0

    stop = flow_tol(target) - shortfall
    left = _augment(topology, rcost, res, pot, frm, to, amount, stop,
                    push_cap=4 * (m - len(closed)) + 16)
    if left > stop:
        achieved = target - shortfall - left
        raise Infeasible(
            f"target {target} exceeds max flow {achieved}", max_flow=achieved)

    amounts = res[1::2]
    flow = np.zeros(topology.pair_shape)
    flow.reshape(-1)[topology.pairs] = amounts
    lp_cost = 0.0
    for amount, cost in zip(amounts, arc_cost):
        if amount != 0.0:
            lp_cost += amount * cost
    state = None
    if start is not None:
        arcs = np.flatnonzero(flow.reshape(-1)[topology.pairs]).tolist()
        state = FlowState(arcs, [r for i in arcs for r in (res[2 * i], res[2 * i + 1])],
                          np.array(pot), shortfall + left)
    return FlowSolution(flow=flow, lp_cost=lp_cost, state=state)


def lp_relaxation_bound(instance: Instance) -> float:
    """Optimal relaxation cost with divisors equal to the class capacities.

    Relaxing each use indicator to flow/capacity linearizes the fixed charge,
    so this value is a lower bound on the true optimum.
    """
    topology = compile_topology(instance)
    net = ExpandedNetwork(topology, topology.arc_costs(slope_scaled_costs(instance)))
    return solve_min_cost_flow(net).lp_cost


def max_flow(topology: Topology, closed: frozenset[int] = frozenset()) -> float:
    """Max flow from source to sink over the open arcs of a compiled
    topology: the SSP kernel at zero cost, sending the source's open
    capacity. Its Dijkstra then pops vertices in push order, so each
    augmentation takes a path of fewest arcs (Edmonds-Karp): each of the 2m
    residual arcs is the bottleneck at most n/2 times (Edmonds & Karp,
    J. ACM 19 (1972) 248-264), so m * n + 1 searches always end it.
    Infinite along a path of infinite arcs; without one, a cut of finite
    arcs bounds the flow, so an infinite arc acts as one of their total."""
    n, m = topology.n_vertices, len(topology.pairs)
    res = topology.capacity.copy()
    for i in closed:
        res[2 * i] = 0.0

    def send(residual: list[float], amount: float) -> float:
        return amount - _augment(topology, [0.0] * (2 * m), residual, [0.0] * n, topology.source,
                                 topology.sink, amount, 0.0, push_cap=m * n + 1)

    if math.inf in res:
        if send([c if c == math.inf else 0.0 for c in res], 1.0):
            return math.inf
        total = math.fsum(c for c in res if c < math.inf)
        res = [total if c == math.inf else c for c in res]
    return send(res, sum(res[rid] for rid in topology.adjacency[topology.source]))


def max_throughput(instance: Instance) -> float:
    """Max flow with each edge at its widest offered class only (the last,
    capacities being increasing).

    This is the target-sizing rule of generate_random and of the tests'
    instance sampler, not the feasibility test: one edge may carry flow in
    several classes at once, so validate() uses max_flow with every offered
    pair open, which can exceed this value.
    """
    topology = compile_topology(instance)
    edge = topology.pairs // instance.n_capacities
    narrower = np.flatnonzero(edge[:-1] == edge[1:])  # an arc of the same edge follows
    return max_flow(topology, frozenset(narrower.tolist()))
